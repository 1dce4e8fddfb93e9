//! The exact backends under measurement, and their traced pipelines.
//!
//! The untraced path calls `FeasibilitySolver::solve` on an engine from an
//! `EnginePool`. The traced path makes the same sequence of public calls,
//! with the same configuration, that the backend makes, and opens a span
//! around each: e.g. `sat` is `encode_cnf` → `SatSolver::new` → `solve`
//! → `decode_model`.

use std::time::Duration;

use csp_engine::{Model, Outcome, SolverConfig, VarOrder};
use mgrts_core::csp1::{self, DEFAULT_MAX_CELLS};
use mgrts_core::csp1_sat::{decode_model, encode_cnf, Csp1SatConfig};
use mgrts_core::csp2::{Csp2Budget, Csp2Solver};
use mgrts_core::csp2_generic;
use mgrts_core::heuristics::TaskOrder;
use mgrts_core::solve::{search_from_csp, search_from_sat, StopReason};
use mgrts_core::{CancelToken, SolveResult, SolveStats, SolverSpec, Verdict};
use rt_sat::{SatConfig, SatLimit, SatOutcome, SatSolver};
use rt_task::{TaskError, TaskSet};

use crate::trace::Tracer;

/// Seed the pool's seeded engines are built with (and the traced pipelines
/// replicate).
pub const ENGINE_SEED: u64 = 1;

/// An exact backend.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Backend {
    /// Specialized CSP2 search, (D−C) ordering.
    Csp2Dc,
    /// CSP1 lowered to CNF on the CDCL solver.
    Sat,
    /// CSP2 on the generic engine.
    Csp2Generic,
    /// CSP2 on the generic engine with nogood learning.
    Csp2Learn,
    /// CSP1 on the generic engine.
    Csp1,
}

impl Backend {
    /// The four backends of the `table1` workload.
    pub const TABLE1: [Backend; 4] = [
        Backend::Csp2Dc,
        Backend::Sat,
        Backend::Csp2Generic,
        Backend::Csp2Learn,
    ];

    /// Every exact backend (the `crossval` workload).
    pub const ALL: [Backend; 5] = [
        Backend::Csp2Dc,
        Backend::Sat,
        Backend::Csp2Generic,
        Backend::Csp2Learn,
        Backend::Csp1,
    ];

    /// The engine factory entry.
    #[must_use]
    pub fn spec(self) -> SolverSpec {
        match self {
            Backend::Csp2Dc => SolverSpec::Csp2(TaskOrder::DeadlineMinusWcet),
            Backend::Sat => SolverSpec::Csp1Sat,
            Backend::Csp2Generic => SolverSpec::Csp2Generic,
            Backend::Csp2Learn => SolverSpec::Csp2Learn,
            Backend::Csp1 => SolverSpec::Csp1,
        }
    }

    /// Stable backend name.
    #[must_use]
    pub fn name(self) -> &'static str {
        self.spec().name()
    }
}

fn unknown(reason: StopReason) -> SolveResult {
    SolveResult {
        verdict: Verdict::Unknown(reason),
        stats: SolveStats::default(),
        search: None,
    }
}

fn csp_stop(limit: csp_engine::LimitReason) -> StopReason {
    match limit {
        csp_engine::LimitReason::Time => StopReason::TimeLimit,
        csp_engine::LimitReason::Decisions | csp_engine::LimitReason::Failures => {
            StopReason::DecisionLimit
        }
        csp_engine::LimitReason::Interrupted => StopReason::Cancelled,
    }
}

/// The size guard CSP1 and the SAT route apply before encoding.
fn too_large(ts: &TaskSet, m: usize, max_cells: u64) -> Result<bool, TaskError> {
    Ok(ts.len() as u64 * m as u64 * ts.hyperperiod()? > max_cells)
}

/// Run `backend` on `(ts, m)` with a wall-clock `budget`, opening a span
/// around every public call the backend makes.
pub fn solve_traced(
    backend: Backend,
    ts: &TaskSet,
    m: usize,
    budget: Duration,
    tr: &mut Tracer,
) -> Result<SolveResult, TaskError> {
    let engine_budget = csp_engine::Budget {
        time: Some(budget),
        max_decisions: None,
        max_failures: None,
    };
    match backend {
        Backend::Csp2Dc => tr.span("csp2.search", || {
            Ok(Csp2Solver::new(ts, m)?
                .with_order(TaskOrder::DeadlineMinusWcet)
                .with_budget(Csp2Budget {
                    time: Some(budget),
                    max_decisions: None,
                })
                .with_cancel(CancelToken::new())
                .solve())
        }),
        Backend::Sat => {
            let defaults = Csp1SatConfig::default();
            if too_large(ts, m, defaults.max_cells)? {
                return Ok(unknown(StopReason::EncodingTooLarge));
            }
            let (cnf, layout) = tr.span("csp1_sat.encode", || encode_cnf(ts, m, defaults.amo))?;
            tr.count("csp1_sat.clauses", cnf.num_clauses() as f64);
            let cfg = SatConfig {
                time_limit: Some(budget),
                max_conflicts: None,
                default_phase: false,
                ..SatConfig::default()
            };
            let mut solver = tr.span("rt_sat.build", || SatSolver::new(&cnf, cfg));
            solver.set_interrupt(CancelToken::new().as_flag());
            let outcome = tr.span("rt_sat.search", || solver.solve());
            let st = solver.stats();
            tr.count("rt_sat.conflicts", st.conflicts as f64);
            let verdict = match outcome {
                SatOutcome::Sat(model) => {
                    Verdict::Feasible(tr.span("csp1_sat.decode", || decode_model(&layout, &model)))
                }
                SatOutcome::Unsat => Verdict::Infeasible,
                SatOutcome::Unknown(SatLimit::Time) => Verdict::Unknown(StopReason::TimeLimit),
                SatOutcome::Unknown(SatLimit::Conflicts) => {
                    Verdict::Unknown(StopReason::DecisionLimit)
                }
                SatOutcome::Unknown(SatLimit::Interrupted) => {
                    Verdict::Unknown(StopReason::Cancelled)
                }
            };
            Ok(SolveResult {
                verdict,
                stats: SolveStats {
                    decisions: st.decisions,
                    failures: st.conflicts,
                    elapsed_us: st.elapsed_us,
                },
                search: Some(search_from_sat(&st)),
            })
        }
        Backend::Csp2Generic | Backend::Csp2Learn => {
            let (model, layout) =
                tr.span("csp2_generic.encode", || csp2_generic::encode(ts, m, true))?;
            let cfg = if backend == Backend::Csp2Learn {
                SolverConfig::chronological_learning()
            } else {
                SolverConfig {
                    var_order: VarOrder::Input,
                    ..SolverConfig::default()
                }
            };
            let result = engine_solve(model, cfg.with_budget(engine_budget), tr)?;
            Ok(finish(result, |sol| {
                tr.span("csp2_generic.decode", || csp2_generic::decode(&layout, sol))
            }))
        }
        Backend::Csp1 => {
            if too_large(ts, m, DEFAULT_MAX_CELLS)? {
                return Ok(unknown(StopReason::EncodingTooLarge));
            }
            let (model, layout) = tr.span("csp1.encode", || csp1::encode(ts, m))?;
            let cfg = SolverConfig::generic_randomized(ENGINE_SEED);
            let result = engine_solve(model, cfg.with_budget(engine_budget), tr)?;
            Ok(finish(result, |sol| {
                tr.span("csp1.decode", || csp1::decode(&layout, sol))
            }))
        }
    }
}

/// What the generic engine returned, before decoding.
struct EngineRun {
    outcome: Outcome,
    stats: csp_engine::SolveStats,
}

/// `Model::into_solver` → `Solver::solve`, plus a root-propagation probe
/// (`Solver::root_fixpoint` on a cloned model) that only the traced run
/// pays for.
fn engine_solve(model: Model, cfg: SolverConfig, tr: &mut Tracer) -> Result<EngineRun, TaskError> {
    let mut probe = tr.span("trace.root_probe", || model.clone().into_solver(cfg));
    tr.span("csp_engine.root", || probe.root_fixpoint());
    drop(probe);
    let mut solver = tr.span("csp_engine.build", || model.into_solver(cfg));
    solver.set_interrupt(CancelToken::new().as_flag());
    let outcome = tr.span("csp_engine.search", || solver.solve());
    let stats = solver.stats();
    for (kind, counters) in csp_engine::PropKind::ALL.iter().zip(stats.kinds.iter()) {
        tr.count(
            format!("csp_engine.wakes.{}", kind.name()),
            counters.wakes as f64,
        );
    }
    tr.count("csp_engine.conflicts", stats.conflicts as f64);
    tr.count("csp_engine.backjump_sum", stats.backjump_sum as f64);
    tr.count("csp_engine.nogoods", stats.learned_nogoods as f64);
    Ok(EngineRun { outcome, stats })
}

fn finish(run: EngineRun, decode: impl FnOnce(&[i32]) -> mgrts_core::Schedule) -> SolveResult {
    let verdict = match &run.outcome {
        Outcome::Sat(sol) => Verdict::Feasible(decode(sol)),
        Outcome::Unsat => Verdict::Infeasible,
        Outcome::Unknown(limit) => Verdict::Unknown(csp_stop(*limit)),
    };
    SolveResult {
        verdict,
        stats: SolveStats {
            decisions: run.stats.decisions,
            failures: run.stats.failures,
            elapsed_us: run.stats.elapsed_us,
        },
        search: Some(search_from_csp(&run.stats)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::classify;
    use mgrts_core::{Budget, EnginePool};
    use rt_gen::{GeneratorConfig, MSpec, ParamOrder, ProblemGenerator};
    use std::time::Instant;

    #[test]
    fn traced_pipelines_reach_the_engines_verdicts() {
        let cfg = GeneratorConfig {
            n: 4,
            m: MSpec::Fixed(2),
            t_max: 4,
            order: ParamOrder::DeadlineFirst,
            synchronous: false,
        };
        let gen = ProblemGenerator::new(cfg, 7);
        let pool = EnginePool::new();
        let budget = Duration::from_secs(1);
        let mut tr = Tracer::new(Instant::now());
        let mut compared = 0;
        for i in 0..12 {
            let p = gen.nth(i);
            for b in Backend::ALL {
                let engine = pool.get(b.spec(), ENGINE_SEED);
                let plain = engine
                    .solve(
                        &p.taskset,
                        p.m,
                        &Budget::time_limit(budget),
                        &CancelToken::new(),
                    )
                    .unwrap();
                let traced = solve_traced(b, &p.taskset, p.m, budget, &mut tr).unwrap();
                let (a, t) = (
                    classify(&p.taskset, p.m, &plain.verdict),
                    classify(&p.taskset, p.m, &traced.verdict),
                );
                assert!(!a.failed() && !t.failed(), "{b:?} on instance {i}");
                if a.decided() && t.decided() {
                    assert_eq!(a, t, "{b:?} on instance {i}");
                    compared += 1;
                }
            }
        }
        assert!(compared > 40, "only {compared} decided pairs");
        for span in [
            "csp2.search",
            "csp1_sat.encode",
            "rt_sat.build",
            "csp_engine.root",
        ] {
            assert!(!tr.durations(span).is_empty(), "no {span} span");
        }
    }
}
