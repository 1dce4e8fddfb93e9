//! The measured loops of the `table1`, `crossval` and `race` workloads,
//! the reference verdicts the `race` and `serve` workloads are checked
//! against, and the sink layer's traced replay.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mgrts_bench::shard::{RunUnit, Shard};
use mgrts_bench::sink::{CampaignRecord, LocalStore, RecordStore};
use mgrts_bench::InstanceOutcome;
use mgrts_core::portfolio::race;
use mgrts_core::{Budget, CancelToken, EnginePool, FeasibilitySolver, SolverSpec};
use rt_gen::Problem;

use crate::check::{classify, Class, Op};
use crate::pipeline::{solve_traced, Backend, ENGINE_SEED};
use crate::trace::Tracer;

/// Wall-clock budget of every solve.
pub const BUDGET: Duration = Duration::from_secs(1);

/// When a measured loop stops starting operations.
#[derive(Debug, Clone, Copy)]
pub enum Stop {
    /// At this instant (an untraced run).
    At(Instant),
    /// After this many operations (a traced replay of an untraced run).
    After(usize),
}

impl Stop {
    fn done(self, ops: usize) -> bool {
        match self {
            Stop::At(t) => Instant::now() >= t,
            Stop::After(n) => ops >= n,
        }
    }
}

fn panic_text(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(ToString::to_string)
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "panic".to_string())
}

fn ms_since(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e3
}

/// Engines of `backends`, built once from `pool`.
#[must_use]
pub fn engines(pool: &EnginePool, backends: &[Backend]) -> Vec<Arc<dyn FeasibilitySolver>> {
    backends
        .iter()
        .map(|b| pool.get(b.spec(), ENGINE_SEED))
        .collect()
}

/// Run (instance, backend) units one at a time, instance-major, until
/// `stop`. Untraced (`tracer == None`) units call
/// `FeasibilitySolver::solve` on the pooled engine; traced units run the
/// backend's pipeline of public calls under spans.
pub fn run_units(
    problems: &[Problem],
    backends: &[Backend],
    engines: &[Arc<dyn FeasibilitySolver>],
    stop: Stop,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Op> {
    let budget = Budget::time_limit(BUDGET);
    let mut ops = Vec::new();
    for k in 0.. {
        // Stop only between instances, so every instance is decided by the
        // whole roster and its verdicts can be compared.
        let slot = k % backends.len();
        if slot == 0 && stop.done(ops.len()) {
            break;
        }
        let instance = (k / backends.len()) % problems.len();
        let (backend, p) = (backends[slot], &problems[instance]);
        let (ts, m) = (&p.taskset, p.m);
        let (class, ms) = match tracer.as_deref_mut() {
            None => {
                let t0 = Instant::now();
                let res = catch_unwind(AssertUnwindSafe(|| {
                    engines[slot].solve(ts, m, &budget, &CancelToken::new())
                }));
                let ms = ms_since(t0);
                let class = match res {
                    Ok(Ok(r)) => classify(ts, m, &r.verdict),
                    Ok(Err(e)) => Class::Error(format!("task error: {e}")),
                    Err(p) => Class::Error(format!("panic: {}", panic_text(&*p))),
                };
                (class, ms)
            }
            Some(tr) => {
                tr.set_op(k as u64);
                let open = tr.enter("op");
                let t0 = Instant::now();
                let res = catch_unwind(AssertUnwindSafe(|| {
                    solve_traced(backend, ts, m, BUDGET, tr)
                }));
                let ms = ms_since(t0);
                let class = match res {
                    Ok(Ok(r)) => {
                        if backend == Backend::Csp2Dc {
                            tr.count("csp2.decisions", r.stats.decisions as f64);
                            tr.count("csp2.failures", r.stats.failures as f64);
                        }
                        tr.span("verify.check", || classify(ts, m, &r.verdict))
                    }
                    Ok(Err(e)) => Class::Error(format!("task error: {e}")),
                    Err(p) => {
                        tr.close_all();
                        ops.push(Op {
                            instance,
                            route: backend.name(),
                            class: Class::Error(format!("panic: {}", panic_text(&*p))),
                            ms,
                        });
                        continue;
                    }
                };
                tr.exit(open);
                (class, ms)
            }
        };
        ops.push(Op {
            instance,
            route: backend.name(),
            class,
            ms,
        });
    }
    ops
}

/// What a race reports besides its verdict (for the `portfolio` layer).
#[derive(Debug, Clone, Default)]
pub struct RaceInfo {
    /// Winning backend.
    pub winner: Option<String>,
    /// Winner verdict to race return, ms.
    pub cancel_ms: Option<f64>,
    /// The winner's own solve time, ms.
    pub winner_ms: Option<f64>,
}

/// Decide instances one at a time with `portfolio::race` over `roster`,
/// until `stop`.
pub fn run_races(
    problems: &[Problem],
    roster: &[Arc<dyn FeasibilitySolver>],
    stop: Stop,
    mut tracer: Option<&mut Tracer>,
) -> (Vec<Op>, Vec<RaceInfo>) {
    let budget = Budget::time_limit(BUDGET);
    let mut ops = Vec::new();
    let mut infos = Vec::new();
    for k in 0.. {
        if stop.done(ops.len()) {
            break;
        }
        let instance = k % problems.len();
        let p = &problems[instance];
        let (ts, m) = (&p.taskset, p.m);
        let open = tracer.as_deref_mut().map(|tr| {
            tr.set_op(k as u64);
            tr.enter("op")
        });
        let t0 = Instant::now();
        let res = catch_unwind(AssertUnwindSafe(|| match tracer.as_deref_mut() {
            Some(tr) => tr.span("portfolio.race", || race(roster, ts, m, &budget)),
            None => race(roster, ts, m, &budget),
        }));
        let ms = ms_since(t0);
        let (class, info) = match res {
            Ok(Ok(r)) => {
                let class = match tracer.as_deref_mut() {
                    Some(tr) => tr.span("verify.check", || classify(ts, m, &r.result.verdict)),
                    None => classify(ts, m, &r.result.verdict),
                };
                let info = RaceInfo {
                    winner: r.winner_name().map(ToString::to_string),
                    cancel_ms: r.cancel_latency_us().map(|us| us as f64 / 1e3),
                    winner_ms: r
                        .winner
                        .map(|i| r.backends[i].stats().elapsed_us as f64 / 1e3),
                };
                (class, info)
            }
            Ok(Err(e)) => (
                Class::Error(format!("task error: {e}")),
                RaceInfo::default(),
            ),
            Err(p) => (
                Class::Error(format!("panic: {}", panic_text(&*p))),
                RaceInfo::default(),
            ),
        };
        if let (Some(tr), Some(open)) = (tracer.as_deref_mut(), open) {
            if class.failed() {
                tr.close_all();
            } else {
                tr.exit(open);
            }
        }
        ops.push(Op {
            instance,
            route: "race",
            class,
            ms,
        });
        infos.push(info);
    }
    (ops, infos)
}

/// Decision budget of the reference run.
pub const REF_DECISIONS: u64 = 20_000;

/// Single-backend reference verdicts (`csp2-dc` under a decision cap) for
/// every instance in `instances`, computed outside the measured window.
/// The `race` and `serve` verdicts must match them wherever both decided.
#[must_use]
pub fn reference_verdicts(
    problems: &[Problem],
    instances: impl IntoIterator<Item = usize>,
    pool: &EnginePool,
) -> BTreeMap<usize, Class> {
    let budget = Budget {
        max_decisions: Some(REF_DECISIONS),
        ..Budget::time_limit(BUDGET)
    };
    let engine = pool.get(Backend::Csp2Dc.spec(), ENGINE_SEED);
    instances
        .into_iter()
        .map(|i| {
            let p = &problems[i];
            let class = match catch_unwind(AssertUnwindSafe(|| {
                engine.solve(&p.taskset, p.m, &budget, &CancelToken::new())
            })) {
                Ok(Ok(r)) => classify(&p.taskset, p.m, &r.verdict),
                Ok(Err(e)) => Class::Error(format!("reference task error: {e}")),
                Err(e) => Class::Error(format!("reference panic: {}", panic_text(&*e))),
            };
            (i, class)
        })
        .collect()
}

/// The sink layer as serve uses it: commit one single-record shard per
/// decided operation into a fresh store under `dir`, then load every
/// record back. Spans `sink.commit` / `sink.load`.
pub fn sink_replay(
    ops: &[Op],
    problems: &[Problem],
    dir: &Path,
    tr: &mut Tracer,
) -> std::io::Result<()> {
    let store = LocalStore::open(dir)?;
    let mut writer = store.open_writer("perfbench")?;
    let mut committed = 0usize;
    for (k, op) in ops.iter().enumerate().filter(|(_, op)| op.class.decided()) {
        let p = &problems[op.instance];
        let key = k as u64;
        let record = CampaignRecord {
            shard: format!("{key:016x}"),
            cell: 0,
            instance: key,
            global_instance: key,
            solver: op.route.parse().unwrap_or(SolverSpec::DEFAULT_PORTFOLIO[0]),
            outcome: if op.class == Class::Feasible {
                InstanceOutcome::Solved
            } else {
                InstanceOutcome::ProvedInfeasible
            },
            time_us: (op.ms * 1e3) as u64,
            ratio: p.utilization_ratio(),
            filtered: p.filtered_out(),
            m: p.m,
            n: p.taskset.len(),
            t_max: p.taskset.max_period(),
            hetero: false,
            hyperperiod: p.taskset.hyperperiod().unwrap_or(0),
            seed: p.seed,
            policy: None,
            winner: None,
            budget_source: None,
            cancel_latency_us: None,
            backends: None,
            search: None,
        };
        let shard = Shard {
            index: 0,
            hash: format!("{key:016x}"),
            units: vec![RunUnit {
                cell: 0,
                instance: key,
                solver: 0,
            }],
        };
        tr.span("sink.commit", || writer.commit_shard(&shard, &[record]))?;
        committed += 1;
    }
    drop(writer);
    let loaded = tr.span("sink.load", || store.load_records())?;
    if loaded.len() != committed {
        return Err(std::io::Error::other(format!(
            "sink returned {} of {committed} committed records",
            loaded.len()
        )));
    }
    Ok(())
}
