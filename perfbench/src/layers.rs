//! Per-layer metrics of a traced run.
//!
//! Layers are named after the modules whose public functions the traced
//! pipelines call. Every metric is emitted on every workload: a layer that
//! does no work on a workload reads `0`, and so does a p50 with fewer than
//! 20 samples (see [`crate::metrics::MIN_BEYOND`]). Counts are means per
//! call, so they do not grow with the number of operations a run fits in.

use std::collections::BTreeMap;

use crate::check::{Class, Op};
use crate::metrics::{frac, median, MIN_BEYOND};
use crate::serve_load::{Answer, Served};
use crate::trace::Tracer;
use crate::workloads::{RaceInfo, BUDGET};

/// Every per-layer metric with its unit, in report order.
pub const CATALOG: &[(&str, &str)] = &[
    ("csp2.search.busy_s", "s"),
    ("csp2.search.p50_ms", "ms"),
    ("csp2.decisions", "count"),
    ("csp2.failures", "count"),
    ("csp2.decided_frac", "frac"),
    ("csp1_sat.encode.busy_s", "s"),
    ("csp1_sat.encode.p50_ms", "ms"),
    ("csp1_sat.clauses", "count"),
    ("rt_sat.build.busy_s", "s"),
    ("rt_sat.build.p50_ms", "ms"),
    ("rt_sat.search.busy_s", "s"),
    ("rt_sat.conflicts", "count"),
    ("rt_sat.decided_frac", "frac"),
    ("rt_sat.overshoot.p50_ms", "ms"),
    ("csp2_generic.encode.p50_ms", "ms"),
    ("csp1.encode.p50_ms", "ms"),
    ("csp_engine.build.p50_ms", "ms"),
    ("csp_engine.root.p50_ms", "ms"),
    ("csp_engine.search.busy_s.csp2-generic", "s"),
    ("csp_engine.search.busy_s.csp2-learn", "s"),
    ("csp_engine.search.busy_s.csp1", "s"),
    ("csp_engine.decided_frac.csp2-generic", "frac"),
    ("csp_engine.decided_frac.csp2-learn", "frac"),
    ("csp_engine.decided_frac.csp1", "frac"),
    ("csp_engine.wakes.count", "count"),
    ("csp_engine.wakes.alldiff_gac", "count"),
    ("csp_engine.wakes.alldiff_fc", "count"),
    ("csp_engine.wakes.leq_var", "count"),
    ("csp_engine.wakes.bool_sum", "count"),
    ("csp_engine.wakes.at_most_one", "count"),
    ("csp_engine.mean_backjump", "levels"),
    ("csp_engine.nogoods", "count"),
    ("verify.check.busy_s", "s"),
    ("portfolio.cancel.p50_ms", "ms"),
    ("portfolio.winner.p50_ms", "ms"),
    ("portfolio.overshoot.p50_ms", "ms"),
    ("portfolio.wins.csp2-dc", "frac"),
    ("portfolio.wins.sat", "frac"),
    ("portfolio.wins.csp2-generic", "frac"),
    ("portfolio.wins.csp2-learn", "frac"),
    ("portfolio.wins.csp1", "frac"),
    ("portfolio.wins.local", "frac"),
    ("serve.hit.p50_ms", "ms"),
    ("serve.miss.p50_ms", "ms"),
    ("serve.hit_frac", "frac"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("sink.commit.p50_ms", "ms"),
    ("sink.load.busy_s", "s"),
    ("self_s.csp2", "s"),
    ("self_s.csp1_sat", "s"),
    ("self_s.rt_sat", "s"),
    ("self_s.csp2_generic", "s"),
    ("self_s.csp1", "s"),
    ("self_s.csp_engine", "s"),
    ("self_s.verify", "s"),
    ("self_s.portfolio", "s"),
    ("self_s.serve", "s"),
    ("self_s.op", "s"),
    ("self_s.trace", "s"),
    ("trace.overhead_frac", "frac"),
    ("trace.accounted_frac", "frac"),
    ("trace.straddles", "count"),
];

/// Serve-side numbers of a traced serve run.
pub struct ServeCounts<'a> {
    /// Every answered request.
    pub answers: &'a [Answer],
    /// The `stats` verb's `inflight_hits`.
    pub coalesced: u64,
    /// The `stats` verb's `rejected`.
    pub rejected: u64,
}

/// What the per-layer metrics are computed from.
pub struct Inputs<'a> {
    /// Spans and counts of the traced replay.
    pub tracer: &'a Tracer,
    /// The traced replay's operations.
    pub ops: &'a [Op],
    /// Race reports (the `race` workload).
    pub races: &'a [RaceInfo],
    /// Serve numbers (the `serve` workload).
    pub serve: Option<&'a ServeCounts<'a>>,
    /// Wall time of the untraced run, seconds.
    pub untraced_wall: f64,
    /// Wall time of the traced replay of the same operations, seconds.
    pub traced_wall: f64,
    /// Operations in flight at once (serve connections).
    pub concurrency: usize,
    /// Decided-vs-Unknown differences between the two runs.
    pub straddles: usize,
}

/// Median of millisecond samples, `0` below `2 × MIN_BEYOND` samples.
fn p50(ms: &[f64]) -> f64 {
    if ms.len() < 2 * MIN_BEYOND {
        0.0
    } else {
        median(ms).unwrap_or(0.0)
    }
}

fn decided_frac(ops: &[Op], route: &str) -> f64 {
    let mine: Vec<&Op> = ops.iter().filter(|o| o.route == route).collect();
    frac(
        mine.iter().filter(|o| o.class.decided()).count(),
        mine.len(),
    )
}

fn overshoot_ms(ops: &[Op], route: &str) -> Vec<f64> {
    ops.iter()
        .filter(|o| o.route == route && o.class == Class::Unknown)
        .map(|o| o.ms - BUDGET.as_secs_f64() * 1e3)
        .filter(|&over| over >= 0.0)
        .collect()
}

/// One report line showing that the traced run's per-layer self times,
/// less the tracing overhead, account for the untraced wall time.
#[must_use]
pub fn accounting(inp: &Inputs<'_>) -> String {
    let self_sum: f64 = inp
        .tracer
        .self_times()
        .iter()
        .filter(|(layer, _)| **layer != "sink")
        .fold(0.0, |acc, (_, s)| acc + s);
    let capacity = inp.traced_wall * inp.concurrency as f64;
    let overhead = inp.traced_wall - inp.untraced_wall;
    format!(
        "  trace: {} ops; untraced wall {:.3} s; traced wall {:.3} s (overhead {:+.3} s); \
         layer self times sum to {:.3} s = {:.1}% of traced wall x {}; \
         self times - overhead = {:.3} s vs untraced {:.3} s; {} straddles",
        inp.ops.len(),
        inp.untraced_wall,
        inp.traced_wall,
        overhead,
        self_sum,
        100.0 * self_sum / capacity.max(f64::MIN_POSITIVE),
        inp.concurrency,
        self_sum / inp.concurrency as f64 - overhead,
        inp.untraced_wall,
        inp.straddles
    )
}

/// Compute every [`CATALOG`] metric the inputs define.
#[must_use]
pub fn compute(inp: &Inputs<'_>) -> BTreeMap<String, f64> {
    let tr = inp.tracer;
    let ms = |name: &str| -> Vec<f64> { tr.durations(name).iter().map(|s| s * 1e3).collect() };
    let mut out: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_string(), v);
    };

    put("csp2.search.busy_s", tr.busy("csp2.search"));
    put("csp2.search.p50_ms", p50(&ms("csp2.search")));
    put("csp2.decisions", tr.count_mean("csp2.decisions"));
    put("csp2.failures", tr.count_mean("csp2.failures"));
    put("csp2.decided_frac", decided_frac(inp.ops, "csp2-dc"));

    put("csp1_sat.encode.busy_s", tr.busy("csp1_sat.encode"));
    put("csp1_sat.encode.p50_ms", p50(&ms("csp1_sat.encode")));
    put("csp1_sat.clauses", tr.count_mean("csp1_sat.clauses"));
    put("rt_sat.build.busy_s", tr.busy("rt_sat.build"));
    put("rt_sat.build.p50_ms", p50(&ms("rt_sat.build")));
    put("rt_sat.search.busy_s", tr.busy("rt_sat.search"));
    put("rt_sat.conflicts", tr.count_mean("rt_sat.conflicts"));
    put("rt_sat.decided_frac", decided_frac(inp.ops, "sat"));
    put(
        "rt_sat.overshoot.p50_ms",
        p50(&overshoot_ms(inp.ops, "sat")),
    );

    put(
        "csp2_generic.encode.p50_ms",
        p50(&ms("csp2_generic.encode")),
    );
    put("csp1.encode.p50_ms", p50(&ms("csp1.encode")));

    put("csp_engine.build.p50_ms", p50(&ms("csp_engine.build")));
    put("csp_engine.root.p50_ms", p50(&ms("csp_engine.root")));
    // Engine search spans, split by the backend of the operation they
    // belong to.
    let route_of: BTreeMap<u64, &str> = inp
        .ops
        .iter()
        .enumerate()
        .map(|(k, o)| (k as u64, o.route))
        .collect();
    for backend in ["csp2-generic", "csp2-learn", "csp1"] {
        let busy: f64 = tr
            .spans()
            .iter()
            .filter(|s| s.name == "csp_engine.search" && route_of.get(&s.op) == Some(&backend))
            .fold(0.0, |acc, s| acc + s.dur());
        put(&format!("csp_engine.search.busy_s.{backend}"), busy);
        put(
            &format!("csp_engine.decided_frac.{backend}"),
            decided_frac(inp.ops, backend),
        );
    }
    for kind in [
        "count",
        "alldiff_gac",
        "alldiff_fc",
        "leq_var",
        "bool_sum",
        "at_most_one",
    ] {
        let name = format!("csp_engine.wakes.{kind}");
        let v = tr.count_mean(&name);
        put(&name, v);
    }
    let (backjumps, _) = tr.count_total("csp_engine.backjump_sum");
    let (conflicts, _) = tr.count_total("csp_engine.conflicts");
    put(
        "csp_engine.mean_backjump",
        if conflicts > 0.0 {
            backjumps / conflicts
        } else {
            0.0
        },
    );
    put("csp_engine.nogoods", tr.count_mean("csp_engine.nogoods"));

    put("verify.check.busy_s", tr.busy("verify.check"));

    let cancel: Vec<f64> = inp.races.iter().filter_map(|r| r.cancel_ms).collect();
    let winner: Vec<f64> = inp.races.iter().filter_map(|r| r.winner_ms).collect();
    put("portfolio.cancel.p50_ms", p50(&cancel));
    put("portfolio.winner.p50_ms", p50(&winner));
    put(
        "portfolio.overshoot.p50_ms",
        p50(&overshoot_ms(inp.ops, "race")),
    );
    for backend in [
        "csp2-dc",
        "sat",
        "csp2-generic",
        "csp2-learn",
        "csp1",
        "local",
    ] {
        let wins = inp
            .races
            .iter()
            .filter(|r| r.winner.as_deref() == Some(backend))
            .count();
        put(
            &format!("portfolio.wins.{backend}"),
            frac(wins, inp.races.len()),
        );
    }

    put("serve.hit.p50_ms", p50(&ms("serve.hit")));
    put("serve.miss.p50_ms", p50(&ms("serve.miss")));
    if let Some(serve) = inp.serve {
        let hits = serve
            .answers
            .iter()
            .filter(|a| a.path == Served::Hit)
            .count();
        put("serve.hit_frac", frac(hits, serve.answers.len()));
        put("serve.coalesced", serve.coalesced as f64);
        put("serve.rejected", serve.rejected as f64);
    }

    put("sink.commit.p50_ms", p50(&ms("sink.commit")));
    put("sink.load.busy_s", tr.busy("sink.load"));

    let selfs = tr.self_times();
    for (name, _) in CATALOG {
        if let Some(layer) = name.strip_prefix("self_s.") {
            put(name, selfs.get(layer).copied().unwrap_or(0.0));
        }
    }

    let op_time: f64 = tr
        .spans()
        .iter()
        .filter(|s| s.parent.is_none() && s.name == "op")
        .fold(0.0, |acc, s| acc + s.dur());
    put(
        "trace.overhead_frac",
        inp.traced_wall / inp.untraced_wall.max(f64::MIN_POSITIVE) - 1.0,
    );
    put(
        "trace.accounted_frac",
        op_time / (inp.traced_wall * inp.concurrency as f64).max(f64::MIN_POSITIVE),
    );
    put("trace.straddles", inp.straddles as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let v: serde_json::Value = serde_json::from_str(&text).expect("valid JSON");
        let serde_json::Value::Array(listed) = &v["per_layer"] else {
            panic!("per_layer must be a list");
        };
        let listed: Vec<(String, String)> = listed
            .iter()
            .map(|m| {
                (
                    m["name"].as_str().unwrap().to_string(),
                    m["unit"].as_str().unwrap().to_string(),
                )
            })
            .collect();
        let catalog: Vec<(String, String)> = CATALOG
            .iter()
            .map(|(n, u)| ((*n).to_string(), (*u).to_string()))
            .collect();
        assert_eq!(listed, catalog);
    }
}
