//! Paired-timing harness shared by the engine benchmarks: interleaved
//! sampling of two legs, and the `bench/baselines/BENCH_*.json` writer.

use std::time::Instant;

/// Paired interleaved sampling: run both legs back-to-back within each
/// round and report (median first-leg ns, median second-leg ns, median of
/// the per-round second/first ratios). On a shared, frequency-drifting
/// machine the per-round ratio is far more stable than a ratio of
/// independently-sampled medians — drift hits both legs of a round equally
/// and cancels, and the median discards preemption outliers.
pub fn paired<FA: FnMut() -> u128, FB: FnMut() -> u128>(
    rounds: usize,
    mut first: FA,
    mut second: FB,
) -> (u128, u128, f64) {
    let samples: Vec<(u128, u128)> = (0..rounds).map(|_| (first(), second())).collect();
    let mut firsts: Vec<u128> = samples.iter().map(|&(a, _)| a).collect();
    let mut seconds: Vec<u128> = samples.iter().map(|&(_, b)| b).collect();
    let mut ratios: Vec<f64> = samples.iter().map(|&(a, b)| b as f64 / a as f64).collect();
    firsts.sort_unstable();
    seconds.sort_unstable();
    ratios.sort_by(f64::total_cmp);
    (
        firsts[firsts.len() / 2],
        seconds[seconds.len() / 2],
        ratios[ratios.len() / 2],
    )
}

/// Wall-clock of one call of `f`, nanoseconds.
pub fn time_ns<F: FnMut()>(mut f: F) -> u128 {
    let t = Instant::now();
    f();
    t.elapsed().as_nanos()
}

/// Write a summary into `bench/baselines/<file>` (next to the other perf
/// baselines) and echo it; a failed write is reported, not fatal.
pub fn write_baseline(file: &str, json: &str) {
    let path = format!(
        "{}/../../bench/baselines/{file}",
        env!("CARGO_MANIFEST_DIR")
    );
    match std::fs::write(&path, json) {
        Ok(()) => println!("wrote {path}:\n{json}"),
        Err(e) => eprintln!("could not write {path}: {e}\n{json}"),
    }
}
