//! The instance runner: solver roster, parallel execution, raw records.

use std::time::Duration;

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};

use mgrts_core::engine::{Budget, CancelToken, FeasibilitySolver, SolverSpec};
use mgrts_core::solve::{StopReason, Verdict};
use mgrts_core::verify::{check_heterogeneous, check_identical};
use rt_gen::Problem;
use rt_platform::Platform;

/// The paper's six solver columns, in Table I order. (Alias of
/// [`SolverSpec::TABLE1_ROSTER`]; kept here because every experiment
/// binary names it.)
pub const ROSTER: [SolverSpec; 6] = SolverSpec::TABLE1_ROSTER;

/// Classified outcome of one (instance, solver) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum InstanceOutcome {
    /// A feasible schedule was produced (and verified against C1–C4).
    Solved,
    /// Infeasibility was proven within the budget.
    ProvedInfeasible,
    /// The time budget elapsed — the paper's "overrun".
    Overrun,
    /// The encoding exceeded the size guard (CSP1 on large instances).
    TooLarge,
    /// A campaign-level cancellation preempted the run before a verdict.
    Cancelled,
    /// The backend has no decision procedure for the cell's platform
    /// (e.g. CSP2-on-generic-engine on a heterogeneous machine).
    Unsupported,
    /// The run failed outside the task model — the engine panicked or
    /// errored past its retry limit. Recorded by the serve layer so
    /// tickets settle instead of wedging; campaign shards park
    /// themselves rather than record this.
    Failed,
}

/// One row of raw experimental data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunRecord {
    /// Instance index in the generator stream.
    pub instance: u64,
    /// Which solver ran.
    pub solver: SolverSpec,
    /// Classified outcome.
    pub outcome: InstanceOutcome,
    /// Wall-clock solve time (µs). For overruns this is ≈ the time limit.
    pub time_us: u64,
    /// Utilization ratio r = U/m of the instance.
    pub ratio: f64,
    /// Whether the instance is pruned by the r > 1 filter (Table II).
    pub filtered: bool,
}

/// Map a solver verdict onto the recorded outcome taxonomy (shared by the
/// single-solver runner and the portfolio-race policy).
pub(crate) fn classify(verdict: &Verdict) -> InstanceOutcome {
    match verdict {
        Verdict::Feasible(_) => InstanceOutcome::Solved,
        Verdict::Infeasible => InstanceOutcome::ProvedInfeasible,
        Verdict::Unknown(StopReason::EncodingTooLarge) => InstanceOutcome::TooLarge,
        Verdict::Unknown(StopReason::Cancelled) => InstanceOutcome::Cancelled,
        Verdict::Unknown(StopReason::Unsupported) => InstanceOutcome::Unsupported,
        Verdict::Unknown(_) => InstanceOutcome::Overrun,
    }
}

/// Run a *prebuilt* engine on one instance under an explicit budget and
/// cancellation token, returning the classified outcome, the backend's
/// wall-clock and its per-solve search telemetry (`None` for backends
/// without counters). Resident callers ([`mgrts_core::engine::EnginePool`]
/// users) keep solver construction out of the per-call path this way.
/// Every produced schedule is verified against the independent C1–C4
/// checker; a verification failure is a bug and panics loudly.
#[must_use]
pub fn run_one_engine_full(
    p: &Problem,
    engine: &dyn FeasibilitySolver,
    budget: &Budget,
    cancel: &CancelToken,
) -> (InstanceOutcome, u64, Option<mgrts_obs::SearchStats>) {
    let res = engine
        .solve(&p.taskset, p.m, budget, cancel)
        .unwrap_or_else(|e| panic!("solver {} failed: {e}", engine.name()));
    if let Verdict::Feasible(s) = &res.verdict {
        check_identical(&p.taskset, p.m, s)
            .unwrap_or_else(|e| panic!("solver {} returned invalid schedule: {e}", engine.name()));
    }
    (classify(&res.verdict), res.stats.elapsed_us, res.search)
}

/// Heterogeneous analogue of [`run_one_engine_full`]: one solver on one
/// instance over a heterogeneous platform (the campaign grid's
/// heterogeneity dimension), verified with the heterogeneous C1–C4
/// checker.
#[must_use]
pub fn run_one_hetero_engine_full(
    p: &Problem,
    platform: &Platform,
    engine: &dyn FeasibilitySolver,
    budget: &Budget,
    cancel: &CancelToken,
) -> (InstanceOutcome, u64, Option<mgrts_obs::SearchStats>) {
    let res = engine
        .solve_hetero(&p.taskset, platform, budget, cancel)
        .expect("valid constrained instance");
    if let Verdict::Feasible(s) = &res.verdict {
        check_heterogeneous(&p.taskset, platform, s).unwrap_or_else(|e| {
            panic!(
                "solver {} returned invalid hetero schedule: {e}",
                engine.name()
            )
        });
    }
    (classify(&res.verdict), res.stats.elapsed_us, res.search)
}

/// Run one solver on one instance with a wall-clock budget (the historical
/// single-run entry point).
#[must_use]
pub fn run_one(p: &Problem, solver: SolverSpec, time_limit: Duration) -> (InstanceOutcome, u64) {
    let (outcome, time_us, _) = run_one_engine_full(
        p,
        &*solver.build_seeded(p.seed),
        &Budget::time_limit(time_limit),
        &CancelToken::new(),
    );
    (outcome, time_us)
}

/// Write raw records as JSON to `path` (the `--json` flag of the
/// experiment binaries).
pub fn save_records(records: &[RunRecord], path: &std::path::Path) -> std::io::Result<()> {
    let file = std::fs::File::create(path)?;
    serde_json::to_writer_pretty(std::io::BufWriter::new(file), records)
        .map_err(std::io::Error::other)?;
    Ok(())
}

/// Run a roster of solvers over a problem stream in parallel. Results come
/// back sorted by (instance, roster position) regardless of scheduling.
#[must_use]
pub fn run_corpus(
    problems: &[Problem],
    roster: &[SolverSpec],
    time_limit: Duration,
    threads: usize,
    progress: bool,
) -> Vec<RunRecord> {
    let jobs: Vec<(u64, SolverSpec)> = (0..problems.len() as u64)
        .flat_map(|i| roster.iter().map(move |&s| (i, s)))
        .collect();
    let next = Mutex::new(0usize);
    let records = Mutex::new(Vec::with_capacity(jobs.len()));
    let done = Mutex::new(0usize);

    crossbeam::scope(|scope| {
        for _ in 0..threads.max(1) {
            scope.spawn(|_| loop {
                let idx = {
                    let mut n = next.lock();
                    if *n >= jobs.len() {
                        break;
                    }
                    let i = *n;
                    *n += 1;
                    i
                };
                let (inst, solver) = jobs[idx];
                let p = &problems[inst as usize];
                let (outcome, time_us) = run_one(p, solver, time_limit);
                records.lock().push(RunRecord {
                    instance: inst,
                    solver,
                    outcome,
                    time_us,
                    ratio: p.utilization_ratio(),
                    filtered: p.filtered_out(),
                });
                if progress {
                    let mut d = done.lock();
                    *d += 1;
                    if (*d).is_multiple_of(100) {
                        eprintln!("  … {}/{} runs", *d, jobs.len());
                    }
                }
            });
        }
    })
    .expect("worker panicked");

    let mut out = records.into_inner();
    let pos = |s: SolverSpec| roster.iter().position(|&r| r == s).unwrap_or(usize::MAX);
    out.sort_by_key(|r| (r.instance, pos(r.solver)));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgrts_core::heuristics::TaskOrder;
    use rt_gen::{GeneratorConfig, ProblemGenerator};

    #[test]
    fn roster_matches_paper_columns() {
        let labels: Vec<_> = ROSTER.iter().map(|s| s.label()).collect();
        assert_eq!(
            labels,
            vec!["CSP1", "CSP2", "+RM", "+DM", "+(T-C)", "+(D-C)"]
        );
    }

    #[test]
    fn run_one_solves_the_running_example() {
        let p = Problem {
            taskset: rt_task::TaskSet::running_example(),
            m: 2,
            seed: 0,
        };
        for solver in ROSTER {
            let (outcome, _, _) = run_one_engine_full(
                &p,
                &*solver.build_seeded(p.seed),
                &Budget::time_limit(Duration::from_secs(5)),
                &CancelToken::new(),
            );
            assert_eq!(outcome, InstanceOutcome::Solved, "{solver:?}");
        }
    }

    #[test]
    fn pre_cancelled_run_reports_cancelled() {
        // A dense instance that needs real search: a raised token classifies
        // as Cancelled, never as a (wrong) verdict.
        let p = Problem {
            taskset: rt_task::TaskSet::from_ocdt(&[
                (0, 2, 3, 4),
                (0, 3, 4, 4),
                (1, 2, 3, 4),
                (0, 1, 2, 2),
                (0, 2, 4, 4),
                (0, 1, 3, 3),
            ]),
            m: 2,
            seed: 0,
        };
        let cancel = CancelToken::new();
        cancel.cancel();
        let solver = SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet);
        let (outcome, _, _) = run_one_engine_full(
            &p,
            &*solver.build_seeded(p.seed),
            &Budget::unlimited(),
            &cancel,
        );
        assert!(
            matches!(
                outcome,
                InstanceOutcome::Cancelled
                    | InstanceOutcome::Solved
                    | InstanceOutcome::ProvedInfeasible
            ),
            "{outcome:?}"
        );
    }

    #[test]
    fn corpus_runs_deterministic_order() {
        let gen = ProblemGenerator::new(
            GeneratorConfig {
                n: 3,
                t_max: 3,
                ..GeneratorConfig::table1()
            },
            1,
        );
        let problems = gen.batch(6);
        let roster = [
            SolverSpec::Csp2(TaskOrder::Lexicographic),
            SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet),
        ];
        let a = run_corpus(&problems, &roster, Duration::from_secs(1), 4, false);
        let b = run_corpus(&problems, &roster, Duration::from_secs(1), 2, false);
        assert_eq!(a.len(), 12);
        let key = |r: &RunRecord| (r.instance, r.solver, r.outcome);
        assert_eq!(
            a.iter().map(key).collect::<Vec<_>>(),
            b.iter().map(key).collect::<Vec<_>>(),
            "outcomes must not depend on thread count"
        );
    }
}
