//! The correctness gate: every Feasible schedule is re-checked against
//! C1–C4, and definitive verdicts on one instance must agree across
//! routes. A failed check turns the operation into an error, which counts
//! in `error_frac` and makes the command exit non-zero.

use std::collections::BTreeMap;

use mgrts_core::verify::check_identical;
use mgrts_core::Verdict;
use rt_task::TaskSet;

/// Verdict class of one operation after checking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Class {
    /// A schedule that passed C1–C4.
    Feasible,
    /// Proven infeasible.
    Infeasible,
    /// No verdict within budget.
    Unknown,
    /// Panicked, errored, was refused, returned an invalid schedule, or
    /// disagreed with another exact verdict.
    Error(String),
}

impl Class {
    /// Feasible or Infeasible.
    #[must_use]
    pub fn decided(&self) -> bool {
        matches!(self, Class::Feasible | Class::Infeasible)
    }

    /// An error of any kind.
    #[must_use]
    pub fn failed(&self) -> bool {
        matches!(self, Class::Error(_))
    }

    /// One-letter tag for per-unit logs.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Class::Feasible => "F",
            Class::Infeasible => "I",
            Class::Unknown => "U",
            Class::Error(_) => "E",
        }
    }
}

/// Classify a verdict, re-checking a Feasible schedule with
/// `verify::check_identical`.
#[must_use]
pub fn classify(ts: &TaskSet, m: usize, verdict: &Verdict) -> Class {
    match verdict {
        Verdict::Feasible(s) => match check_identical(ts, m, s) {
            Ok(()) => Class::Feasible,
            Err(e) => Class::Error(format!("invalid schedule: {e:?}")),
        },
        Verdict::Infeasible => Class::Infeasible,
        Verdict::Unknown(_) => Class::Unknown,
    }
}

/// One measured operation.
#[derive(Debug, Clone)]
pub struct Op {
    /// Index of the instance in the workload's input list.
    pub instance: usize,
    /// Route: a backend name, `race`, or `serve`.
    pub route: &'static str,
    /// Checked verdict.
    pub class: Class,
    /// Time by the benchmark's own clock around the public call, ms.
    pub ms: f64,
}

/// Mark every definitive operation on an instance where a Feasible and an
/// Infeasible verdict meet (including the `reference` verdicts, computed
/// outside the measured window) as an error. Returns the number of
/// instances in conflict.
pub fn mark_disagreements(ops: &mut [Op], reference: &BTreeMap<usize, Class>) -> usize {
    let mut seen: BTreeMap<usize, (bool, bool)> = BTreeMap::new();
    let mut note = |instance: usize, class: &Class| {
        let e = seen.entry(instance).or_default();
        match class {
            Class::Feasible => e.0 = true,
            Class::Infeasible => e.1 = true,
            _ => {}
        }
    };
    for op in ops.iter() {
        note(op.instance, &op.class);
    }
    for (&instance, class) in reference {
        note(instance, class);
    }
    let conflicted: Vec<usize> = seen
        .into_iter()
        .filter(|(_, (f, i))| *f && *i)
        .map(|(k, _)| k)
        .collect();
    for op in ops.iter_mut() {
        if op.class.decided() && conflicted.binary_search(&op.instance).is_ok() {
            op.class = Class::Error(format!(
                "verdict disagreement on instance {} ({} said {})",
                op.instance,
                op.route,
                op.class.tag()
            ));
        }
    }
    conflicted.len()
}

/// Compare the traced run's per-unit verdicts with the untraced run's
/// (same units, same order). A decided-vs-Unknown pair is a budget
/// straddle and is only counted; Feasible-vs-Infeasible is an error on
/// the traced operation. Returns the straddle count.
pub fn match_traced(untraced: &[Op], traced: &mut [Op]) -> usize {
    let mut straddles = 0;
    for (u, t) in untraced.iter().zip(traced.iter_mut()) {
        assert_eq!(
            (u.instance, u.route),
            (t.instance, t.route),
            "traced run must replay the untraced units in order"
        );
        match (&u.class, &t.class) {
            (Class::Feasible, Class::Infeasible) | (Class::Infeasible, Class::Feasible) => {
                t.class = Class::Error(format!(
                    "traced verdict {} differs from untraced {} on instance {} ({})",
                    t.class.tag(),
                    u.class.tag(),
                    u.instance,
                    u.route
                ));
            }
            (a, b) if a.decided() != b.decided() && !a.failed() && !b.failed() => straddles += 1,
            _ => {}
        }
    }
    straddles
}

#[cfg(test)]
mod tests {
    use super::*;
    use mgrts_core::csp2::Csp2Solver;
    use mgrts_core::Schedule;

    fn op(instance: usize, route: &'static str, class: Class) -> Op {
        Op {
            instance,
            route,
            class,
            ms: 1.0,
        }
    }

    #[test]
    fn invalid_schedule_fails_the_check() {
        let ts = TaskSet::running_example();
        let good = Csp2Solver::new(&ts, 2).unwrap().solve().verdict;
        assert_eq!(classify(&ts, 2, &good), Class::Feasible);
        // An all-idle schedule gives no job its WCET (C4 fails).
        let idle = Verdict::Feasible(Schedule::idle(2, ts.hyperperiod().unwrap()));
        assert!(classify(&ts, 2, &idle).failed());
        // A schedule over the wrong processor count fails too.
        let good_schedule = good.schedule().unwrap().clone();
        assert!(classify(&ts, 3, &Verdict::Feasible(good_schedule)).failed());
    }

    #[test]
    fn verdict_disagreement_fails_the_check() {
        let mut ops = vec![
            op(0, "csp2-dc", Class::Feasible),
            op(0, "sat", Class::Infeasible),
            op(0, "csp2-learn", Class::Unknown),
            op(1, "csp2-dc", Class::Infeasible),
            op(1, "sat", Class::Infeasible),
        ];
        assert_eq!(mark_disagreements(&mut ops, &BTreeMap::new()), 1);
        assert!(ops[0].class.failed() && ops[1].class.failed());
        assert_eq!(ops[2].class, Class::Unknown);
        assert_eq!(ops[3].class, Class::Infeasible);
    }

    #[test]
    fn race_verdict_is_checked_against_single_backend_references() {
        let mut ops = vec![
            op(4, "race", Class::Feasible),
            op(5, "race", Class::Feasible),
        ];
        let reference = BTreeMap::from([(4, Class::Infeasible), (5, Class::Unknown)]);
        assert_eq!(mark_disagreements(&mut ops, &reference), 1);
        assert!(ops[0].class.failed());
        assert_eq!(ops[1].class, Class::Feasible);
    }

    #[test]
    fn traced_mismatch_is_an_error_and_straddles_are_counted() {
        let untraced = vec![
            op(0, "sat", Class::Feasible),
            op(0, "csp2-learn", Class::Unknown),
            op(1, "sat", Class::Infeasible),
        ];
        let mut traced = vec![
            op(0, "sat", Class::Infeasible),
            op(0, "csp2-learn", Class::Feasible),
            op(1, "sat", Class::Infeasible),
        ];
        assert_eq!(match_traced(&untraced, &mut traced), 1);
        assert!(traced[0].class.failed());
        assert_eq!(traced[1].class, Class::Feasible);
        assert_eq!(traced[2].class, Class::Infeasible);
    }
}
