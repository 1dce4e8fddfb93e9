//! `perfbench` — end-to-end time-to-verdict benchmark of the mgrts
//! workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <table1|race|crossval|serve> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Inputs come from `rt_gen::ProblemGenerator` seeded with `--seed` and
//! are generated before the clock starts. Every operation is timed by the
//! benchmark's own clock around one public call, every verdict is checked
//! (see [`check`]), and the report ends with one JSON line. With
//! `--trace 0` it carries the end-to-end metrics; with `--trace 1` the run
//! is split in two halves, an untraced run and a traced replay of the same
//! operations, and it carries the per-layer metrics of the replay.

mod check;
mod layers;
mod metrics;
mod pipeline;
mod serve_load;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mgrts_core::{EnginePool, SolverSpec};
use rt_gen::{GeneratorConfig, MSpec, ParamOrder, Problem, ProblemGenerator};

use check::{mark_disagreements, match_traced, Class, Op};
use metrics::{frac, iqm, median, percentile, verdict_sample, Metric};
use pipeline::Backend;
use serve_load::{Answer, Rig, Served};
use trace::Tracer;
use workloads::{engines, reference_verdicts, run_races, run_units, sink_replay, Stop, BUDGET};

/// Set-ups timed before, and again after, the measured window; `setup_s`
/// is the median of all of them.
const SETUP_REPS: usize = 9;
/// Share of a `--trace 1` run given to the untraced half.
const UNTRACED_SHARE: f64 = 0.45;
/// At most this many decided operations are replayed into the sink.
const SINK_REPLAY_CAP: usize = 100;
/// Serve: distinct instances per shuffled block, and how often each is
/// requested.
const SERVE_BLOCK: usize = 4;
const SERVE_REPEATS: usize = 16;

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".to_string());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// What a workload run produced.
#[derive(Default)]
struct Report {
    /// Human report lines (printed before the JSON line).
    lines: Vec<String>,
    /// End-to-end metrics of the untraced run.
    e2e: Vec<Metric>,
    /// Per-layer metrics of the traced replay.
    layers: BTreeMap<String, f64>,
    attempted: usize,
    failed: usize,
    /// Check failures not tied to one operation.
    problems: Vec<String>,
}

impl Report {
    fn count_ops(&mut self, ops: &[Op]) {
        self.attempted += ops.len();
        self.failed += ops.iter().filter(|o| o.class.failed()).count();
        for op in ops.iter().filter(|o| o.class.failed()).take(10) {
            if let Class::Error(e) = &op.class {
                self.lines.push(format!(
                    "  error: instance {} {}: {e}",
                    op.instance, op.route
                ));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Inputs
// ---------------------------------------------------------------------------

/// Instances generated per run; a run visits them in [`stratified`] order.
const POOL: usize = 4096;

/// The paper's Table-I cell: n = 10, m = 5, Tmax = 7.
fn table1_problems(seed: u64) -> Vec<Problem> {
    stratified(GeneratorConfig::table1(), seed)
}

/// The small instances of core's cross-validation suite: n = 4, m = 2,
/// Tmax = 4.
fn crossval_problems(seed: u64) -> Vec<Problem> {
    let cfg = GeneratorConfig {
        n: 4,
        m: MSpec::Fixed(2),
        t_max: 4,
        order: ParamOrder::DeadlineFirst,
        synchronous: false,
    };
    stratified(cfg, seed)
}

/// The first [`POOL`] instances of the seeded generator stream, ordered so
/// that every prefix spreads evenly over the pool's utilization ratios.
///
/// Whether an instance is decided within budget depends mostly on its
/// utilization ratio `r = U/m`: the overruns sit just above `r = 1`. A
/// `table1` run reaches only a dozen instances, so in stream order its
/// decided share would swing with how many of those it happened to draw.
/// Sorting the pool by `r` and visiting it in bit-reversed order, rotated
/// by a seeded offset, samples the same distribution with each band of `r`
/// in proportion.
fn stratified(cfg: GeneratorConfig, seed: u64) -> Vec<Problem> {
    let gen = ProblemGenerator::new(cfg, seed);
    let mut pool: Vec<(f64, Problem)> = (0..POOL as u64)
        .map(|i| {
            let p = gen.nth(i);
            (p.utilization_ratio(), p)
        })
        .collect();
    pool.sort_by(|a, b| a.0.total_cmp(&b.0));
    let bits = POOL.trailing_zeros();
    let mut state = seed;
    let offset = splitmix(&mut state) as usize % POOL;
    (0..POOL)
        .map(|k| {
            let slot = (k.reverse_bits() >> (usize::BITS - bits)).wrapping_add(offset) % POOL;
            pool[slot].1.clone()
        })
        .collect()
}

/// SplitMix64 step (the serve request shuffle).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Distinct instances the serve request sequence draws on: more than a
/// run of `seconds` reaches at 40 first sightings a second.
fn serve_distinct(seconds: f64) -> usize {
    ((seconds * 40.0).ceil() as usize).clamp(SERVE_BLOCK, POOL)
}

/// The serve request sequence: blocks of [`SERVE_BLOCK`] distinct
/// instances, each requested [`SERVE_REPEATS`] times in a seeded shuffle
/// within its block. Returns the request lines and each line's instance.
fn serve_requests(problems: &[Problem], seed: u64) -> (Vec<String>, Vec<usize>) {
    use serde::Serialize;
    let mut rng = seed ^ 0x5E7E_5E7E;
    let mut order = Vec::new();
    for block in (0..problems.len()).collect::<Vec<_>>().chunks(SERVE_BLOCK) {
        let mut reqs: Vec<usize> = block
            .iter()
            .flat_map(|&i| std::iter::repeat_n(i, SERVE_REPEATS))
            .collect();
        for k in (1..reqs.len()).rev() {
            let j = (splitmix(&mut rng) % (k as u64 + 1)) as usize;
            reqs.swap(k, j);
        }
        order.extend(reqs);
    }
    let lines = order
        .iter()
        .map(|&i| {
            let p = &problems[i];
            let v = serde_json::Value::Object(vec![
                (
                    "type".to_string(),
                    serde_json::Value::String("solve".to_string()),
                ),
                ("taskset".to_string(), p.taskset.to_value()),
                ("m".to_string(), serde_json::Value::UInt(p.m as u64)),
            ]);
            let mut line = serde_json::to_string(&v).expect("request renders");
            line.push('\n');
            line
        })
        .collect();
    (lines, order)
}

// ---------------------------------------------------------------------------
// Metrics of a run
// ---------------------------------------------------------------------------

/// Time [`SETUP_REPS`] set-ups into `times`, tearing down all but the
/// last, which is returned. Each workload calls it once before and once
/// after its measured window, so `setup_s` samples the host's speed over
/// the whole run rather than in one instant.
fn timed_setup<T>(
    times: &mut Vec<f64>,
    mut f: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> T {
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let t0 = Instant::now();
        last = Some(f());
        times.push(t0.elapsed().as_secs_f64());
    }
    last.expect("at least one set-up")
}

/// The end-to-end metrics of an untraced run.
fn e2e_metrics(ops: &[Op], wall_s: f64, setup: &[f64]) -> Vec<Metric> {
    let n = ops.len();
    let decided = ops.iter().filter(|o| o.class.decided()).count();
    let failed = ops.iter().filter(|o| o.class.failed()).count();
    let samples: Vec<f64> = ops
        .iter()
        .map(|o| verdict_sample(o.class.decided(), o.ms))
        .collect();
    vec![
        Metric::new("decided_frac", "frac", frac(decided, n), n),
        Metric::new("ops_per_s", "1/s", n as f64 / wall_s, n)
            .with_note(format!("wall {wall_s:.3} s")),
        Metric::new(
            "latency_iqm_ms",
            "ms",
            iqm(&ops.iter().map(|o| o.ms).collect::<Vec<_>>()).unwrap_or(0.0),
            n,
        )
        .with_note("interquartile mean; undecided operations at their measured time"),
        Metric::pct("verdict_p50_ms", percentile(&samples, 0.5), n),
        Metric::pct("verdict_p90_ms", percentile(&samples, 0.9), n),
        Metric::new("error_frac", "frac", frac(failed, n), n),
        Metric::new("setup_s", "s", median(setup).unwrap_or(0.0), setup.len())
            .with_note(format!("median of {} set-ups", setup.len())),
        Metric::new("peak_rss_mb", "MB", metrics::peak_rss_mb(), 1),
    ]
}

/// Per-route breakdown: decided share, and how far undecided operations
/// overshoot the budget.
fn route_lines(ops: &[Op]) -> Vec<String> {
    let mut routes: Vec<&'static str> = ops.iter().map(|o| o.route).collect();
    routes.sort_unstable();
    routes.dedup();
    routes
        .into_iter()
        .map(|route| {
            let mine: Vec<&Op> = ops.iter().filter(|o| o.route == route).collect();
            let decided = mine.iter().filter(|o| o.class.decided()).count();
            // Undecided operations that ran out the budget (not, e.g., a
            // cache hit on an instance that overran earlier).
            let over: Vec<f64> = mine
                .iter()
                .filter(|o| o.class == Class::Unknown)
                .map(|o| o.ms - BUDGET.as_secs_f64() * 1e3)
                .filter(|&over| over >= 0.0)
                .collect();
            let over_text = match median(&over) {
                Some(m) => format!(
                    "overshoot p50 {m:+.2} ms, max {:+.2} ms (n={})",
                    over.iter().copied().fold(f64::MIN, f64::max),
                    over.len()
                ),
                None => "no undecided operations".to_string(),
            };
            format!(
                "  route {route:<13} decided {decided}/{} ({:.3}); {over_text}",
                mine.len(),
                frac(decided, mine.len())
            )
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// The inputs and engines every non-serve workload sets up.
struct Prepared {
    problems: Vec<Problem>,
    pool: EnginePool,
}

fn prepare(problems: impl Fn() -> Vec<Problem>, specs: &[SolverSpec]) -> Prepared {
    let problems = problems();
    let pool = EnginePool::new();
    let _ = pool.roster(specs, pipeline::ENGINE_SEED);
    Prepared { problems, pool }
}

fn out_dir() -> PathBuf {
    PathBuf::from("perfbench").join("out")
}

/// `table1` and `crossval`: every instance through every backend.
fn units_workload(
    args: &Args,
    backends: &[Backend],
    problems: impl Fn() -> Vec<Problem>,
) -> Report {
    let specs: Vec<SolverSpec> = backends.iter().map(|b| b.spec()).collect();
    let mut setup = Vec::new();
    let prep = timed_setup(&mut setup, || prepare(&problems, &specs), drop);
    let engines = engines(&prep.pool, backends);
    let mut report = Report::default();
    let share = if args.trace { UNTRACED_SHARE } else { 1.0 };
    let t0 = Instant::now();
    let deadline = t0 + std::time::Duration::from_secs_f64(args.seconds * share);
    let mut ops = run_units(&prep.problems, backends, &engines, Stop::At(deadline), None);
    let wall = t0.elapsed().as_secs_f64();
    drop(timed_setup(&mut setup, || prepare(&problems, &specs), drop));
    mark_disagreements(&mut ops, &BTreeMap::new());
    report.e2e = e2e_metrics(&ops, wall, &setup);
    report.lines.extend(route_lines(&ops));
    report.count_ops(&ops);
    if args.trace {
        let mut tracer = Tracer::new(Instant::now());
        let t1 = Instant::now();
        let ops_t = run_units(
            &prep.problems,
            backends,
            &engines,
            Stop::After(ops.len()),
            Some(&mut tracer),
        );
        let replay = Replay {
            tracer,
            ops: ops_t,
            wall: t1.elapsed().as_secs_f64(),
            races: Vec::new(),
            serve: None,
            concurrency: 1,
        };
        let untraced = (&ops[..], wall);
        finish_replay(
            &mut report,
            args,
            &prep.problems,
            &BTreeMap::new(),
            untraced,
            replay,
        );
    }
    report
}

/// A traced replay of an untraced run's operations.
struct Replay<'a> {
    tracer: Tracer,
    ops: Vec<Op>,
    wall: f64,
    races: Vec<workloads::RaceInfo>,
    serve: Option<layers::ServeCounts<'a>>,
    concurrency: usize,
}

/// Check a traced replay against the untraced run `(ops, wall)`, replay
/// its decided operations into the sink, dump its spans, and compute the
/// per-layer metrics from it.
fn finish_replay(
    report: &mut Report,
    args: &Args,
    problems: &[Problem],
    reference: &BTreeMap<usize, Class>,
    (untraced, untraced_wall): (&[Op], f64),
    mut replay: Replay<'_>,
) {
    mark_disagreements(&mut replay.ops, reference);
    let straddles = match_traced(untraced, &mut replay.ops);
    report.count_ops(&replay.ops);
    let mut sunk: Vec<Op> = Vec::new();
    let mut seen = std::collections::BTreeSet::new();
    for op in replay.ops.iter().filter(|o| o.class.decided()) {
        if seen.insert((op.instance, op.route)) && sunk.len() < SINK_REPLAY_CAP {
            sunk.push(op.clone());
        }
    }
    let dir = out_dir().join(format!("sink-{}-{}", args.workload, std::process::id()));
    if let Err(e) = sink_replay(&sunk, problems, &dir, &mut replay.tracer) {
        report.problems.push(format!("sink replay failed: {e}"));
    }
    let _ = std::fs::remove_dir_all(&dir);
    let path = out_dir().join(format!("trace-{}-{}.jsonl", args.workload, args.seed));
    match replay.tracer.write_jsonl(&path) {
        Ok(()) => report
            .lines
            .push(format!("  spans written to {}", path.display())),
        Err(e) => report.lines.push(format!("  could not write spans: {e}")),
    }
    let inputs = layers::Inputs {
        tracer: &replay.tracer,
        ops: &replay.ops,
        races: &replay.races,
        serve: replay.serve.as_ref(),
        untraced_wall,
        traced_wall: replay.wall,
        concurrency: replay.concurrency,
        straddles,
    };
    report.layers = layers::compute(&inputs);
    report.lines.push(layers::accounting(&inputs));
}

/// `race`: one `portfolio::race` over `DEFAULT_PORTFOLIO` per instance.
fn race_workload(args: &Args) -> Report {
    let setup_once = || {
        prepare(
            || table1_problems(args.seed),
            &SolverSpec::DEFAULT_PORTFOLIO,
        )
    };
    let mut setup = Vec::new();
    let prep = timed_setup(&mut setup, setup_once, drop);
    let roster = prep
        .pool
        .roster(&SolverSpec::DEFAULT_PORTFOLIO, pipeline::ENGINE_SEED);
    let mut report = Report::default();
    let share = if args.trace { UNTRACED_SHARE } else { 1.0 };
    let t0 = Instant::now();
    let deadline = t0 + std::time::Duration::from_secs_f64(args.seconds * share);
    let (mut ops, _) = run_races(&prep.problems, &roster, Stop::At(deadline), None);
    let wall = t0.elapsed().as_secs_f64();
    drop(timed_setup(&mut setup, setup_once, drop));
    let reference = timed_reference(&mut report, &prep, &ops);
    mark_disagreements(&mut ops, &reference);
    report.e2e = e2e_metrics(&ops, wall, &setup);
    report.lines.extend(route_lines(&ops));
    report.count_ops(&ops);
    if args.trace {
        let mut tracer = Tracer::new(Instant::now());
        let t1 = Instant::now();
        let (ops_t, races) = run_races(
            &prep.problems,
            &roster,
            Stop::After(ops.len()),
            Some(&mut tracer),
        );
        let replay = Replay {
            tracer,
            ops: ops_t,
            wall: t1.elapsed().as_secs_f64(),
            races,
            serve: None,
            concurrency: 1,
        };
        finish_replay(
            &mut report,
            args,
            &prep.problems,
            &reference,
            (&ops, wall),
            replay,
        );
    }
    report
}

/// Reference verdicts for every instance `ops` touched, timed for the
/// report (they run outside the measured window).
fn timed_reference(report: &mut Report, prep: &Prepared, ops: &[Op]) -> BTreeMap<usize, Class> {
    let t0 = Instant::now();
    let mut instances: Vec<usize> = ops.iter().map(|o| o.instance).collect();
    instances.sort_unstable();
    instances.dedup();
    let reference = reference_verdicts(&prep.problems, instances.iter().copied(), &prep.pool);
    report.lines.push(format!(
        "  reference verdicts (csp2-dc, {} decisions) for {} instances in {:.2} s",
        workloads::REF_DECISIONS,
        instances.len(),
        t0.elapsed().as_secs_f64()
    ));
    report
        .problems
        .extend(reference.iter().filter_map(|(i, c)| match c {
            Class::Error(e) => Some(format!("instance {i}: {e}")),
            _ => None,
        }));
    reference
}

/// `serve`: a closed loop of [`serve_load::CONNECTIONS`] connections
/// against an in-process server.
fn serve_workload(args: &Args) -> Report {
    let base = out_dir().join(format!("serve-{}", std::process::id()));
    let mut fresh = 0usize;
    let mut next_dir = || {
        fresh += 1;
        base.join(format!("data-{fresh}"))
    };
    let setup_once = |dir: PathBuf| {
        let problems = table1_problems(args.seed);
        let (lines, order) = serve_requests(&problems[..serve_distinct(args.seconds)], args.seed);
        let rig = Rig::start(&dir).expect("start server");
        (
            Prepared {
                problems,
                pool: EnginePool::new(),
            },
            lines,
            order,
            rig,
        )
    };
    let stop_rig = |(_, _, _, rig): (Prepared, Vec<String>, Vec<usize>, Rig)| drop(rig.stop());
    let mut setup = Vec::new();
    let (prep, lines, order, rig) = timed_setup(&mut setup, || setup_once(next_dir()), stop_rig);
    let mut report = Report::default();
    let share = if args.trace { UNTRACED_SHARE } else { 1.0 };
    let deadline = Instant::now() + std::time::Duration::from_secs_f64(args.seconds * share);
    let run = serve_run(&mut report, rig, &lines, &order, Stop::At(deadline), None);
    stop_rig(timed_setup(&mut setup, || setup_once(next_dir()), stop_rig));
    let mut ops: Vec<Op> = run.answers.iter().map(|a| a.op.clone()).collect();
    let reference = timed_reference(&mut report, &prep, &ops);
    mark_disagreements(&mut ops, &reference);
    report.e2e = e2e_metrics(&ops, run.wall, &setup);
    report.lines.extend(route_lines(&ops));
    report.count_ops(&ops);
    if args.trace {
        let rig = Rig::start(&next_dir()).expect("start server");
        let mut traced_run = serve_run(
            &mut report,
            rig,
            &lines,
            &order,
            Stop::After(ops.len()),
            Some(Instant::now()),
        );
        let replay = Replay {
            tracer: traced_run.tracer.take().expect("traced serve run"),
            ops: traced_run.answers.iter().map(|a| a.op.clone()).collect(),
            wall: traced_run.wall,
            races: Vec::new(),
            serve: Some(layers::ServeCounts {
                answers: &traced_run.answers,
                coalesced: traced_run.stat("inflight_hits"),
                rejected: traced_run.stat("rejected"),
            }),
            concurrency: serve_load::CONNECTIONS,
        };
        finish_replay(
            &mut report,
            args,
            &prep.problems,
            &reference,
            (&ops, run.wall),
            replay,
        );
    }
    let _ = std::fs::remove_dir_all(&base);
    report
}

/// One serve load run on a started rig.
struct ServeRun {
    answers: Vec<Answer>,
    wall: f64,
    tracer: Option<Tracer>,
    stats: serde_json::Value,
}

impl ServeRun {
    fn stat(&self, field: &str) -> u64 {
        self.stats[field].as_u64().unwrap_or(0)
    }
}

/// Drive `rig` until `stop`, reconcile the client counts with the
/// server's `stats` verb, and stop the server.
fn serve_run(
    report: &mut Report,
    mut rig: Rig,
    lines: &[String],
    order: &[usize],
    stop: Stop,
    origin: Option<Instant>,
) -> ServeRun {
    let t0 = Instant::now();
    let (answers, tracer) = serve_load::drive(&mut rig, lines, order, stop, origin);
    let wall = t0.elapsed().as_secs_f64();
    let stats = match rig.stats() {
        Ok(v) => {
            report.problems.extend(serve_load::reconcile(&answers, &v));
            v
        }
        Err(e) => {
            report
                .problems
                .push(format!("serve stats verb failed: {e}"));
            serde_json::Value::Null
        }
    };
    let count = |p: Served| answers.iter().filter(|a| a.path == p).count();
    report.lines.push(format!(
        "  serve{}: {} requests: {} hits, {} misses, {} coalesced, {} refused; \
         server stats agree: {}",
        if origin.is_some() { " (traced)" } else { "" },
        answers.len(),
        count(Served::Hit),
        count(Served::Miss),
        count(Served::Inflight),
        count(Served::Refused),
        report.problems.is_empty()
    ));
    let dir = rig.stop();
    let _ = std::fs::remove_dir_all(dir);
    ServeRun {
        answers,
        wall,
        tracer,
        stats,
    }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

fn json_metric(name: &str, value: f64, unit: &str) -> String {
    format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    // A fault plan would inject failures into the measured layers.
    let plan_env = std::env::var(mgrts_fault::PLAN_ENV).unwrap_or_default();
    if mgrts_fault::active() || !plan_env.trim().is_empty() {
        eprintln!(
            "perfbench: refusing to run while a fault plan is active ({}={plan_env:?})",
            mgrts_fault::PLAN_ENV
        );
        return ExitCode::from(2);
    }
    let report = match args.workload.as_str() {
        "table1" => units_workload(&args, &Backend::TABLE1, || table1_problems(args.seed)),
        "crossval" => units_workload(&args, &Backend::ALL, || crossval_problems(args.seed)),
        "race" => race_workload(&args),
        "serve" => serve_workload(&args),
        other => {
            eprintln!("perfbench: unknown workload {other} (table1|race|crossval|serve)");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    for line in &report.lines {
        println!("{line}");
    }
    for m in &report.e2e {
        println!("{}", m.line());
    }
    for p in &report.problems {
        println!("  check failed: {p}");
    }
    let failed = report.failed + report.problems.len();
    let correct = failed == 0;
    let emitted: Vec<String> = if args.trace {
        for (name, unit) in layers::CATALOG {
            println!(
                "  {name:<40} {:>16.6} {unit}",
                report.layers.get(*name).copied().unwrap_or(0.0)
            );
        }
        layers::CATALOG
            .iter()
            .map(|(name, unit)| {
                json_metric(name, report.layers.get(*name).copied().unwrap_or(0.0), unit)
            })
            .collect()
    } else {
        E2E_EMITTED
            .iter()
            .filter_map(|name| report.e2e.iter().find(|m| m.name == *name))
            .map(|m| json_metric(&m.name, m.value.unwrap_or(0.0), m.unit))
            .collect()
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        report.attempted.max(1),
        emitted.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// End-to-end metrics carried by the JSON line: those every workload
/// defines with a finite, non-zero value that stays steady across seeds
/// and runs (see `perfbench/README.md` for why the others are printed
/// only).
const E2E_EMITTED: [&str; 2] = ["decided_frac", "setup_s"];
