//! Resume determinism of the campaign engine: a campaign killed mid-shard
//! and resumed must reconstruct exactly the record set of an uninterrupted
//! run — the acceptance property of the record store.
//!
//! "Killed mid-shard" is simulated at the storage layer, which is where a
//! SIGKILL actually bites: the interrupted store ends with (a) record
//! lines from a shard that never reached its checkpoint and (b) a
//! truncated trailing record line. `resume` must discard both, re-run the
//! missing shards, and converge to the same canonical export (wall-clock
//! fields normalized — they are measurements, not results).

use std::io::Write;
use std::path::PathBuf;

use proptest::prelude::*;

use mgrts_bench::campaign::{canonical_store_export, resume, run_fresh, CampaignOptions, Manifest};
use mgrts_bench::sink::RECORDS_FILE;
use mgrts_core::engine::CancelGroup;

fn manifest(seed: u64, shard_size: usize) -> Manifest {
    Manifest::parse(&format!(
        r#"
[campaign]
name = "resume-prop"
seed = {seed}
time_limit_ms = 5000
instances_per_cell = 4
shard_size = {shard_size}

[grid]
n = [3, 4]
m = [2]
t_max = [4]
solvers = ["csp2-dc", "csp2-rm", "sat"]
"#
    ))
    .expect("valid manifest")
}

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mgrts-resume-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn opts(max_shards: Option<u64>) -> CampaignOptions {
    CampaignOptions {
        threads: 2,
        progress: false,
        max_shards,
    }
}

/// Append SIGKILL debris to a record store: a full record line belonging
/// to a shard that never checkpointed, then a truncated line.
fn simulate_kill_mid_shard(store: &std::path::Path) {
    let mut raw = std::fs::OpenOptions::new()
        .append(true)
        .open(store.join(RECORDS_FILE))
        .expect("records file exists after a partial run");
    // A plausible but uncheckpointed record (shard hash no plan contains).
    let stale = r#"{"shard":"deadbeefdeadbeef","cell":0,"instance":0,"global_instance":0,"solver":"Csp1","outcome":"Solved","time_us":1,"ratio":0.5,"filtered":false,"m":2,"n":3,"t_max":4,"hetero":false,"hyperperiod":12,"seed":1}"#;
    writeln!(raw, "{stale}").unwrap();
    // A run record cut off mid-write.
    write!(raw, "{}", &stale[..stale.len() / 2]).unwrap();
}

proptest! {
    // Each case runs two full campaigns; keep the count modest.
    #![proptest_config(ProptestConfig::with_cases(6))]

    #[test]
    fn killed_and_resumed_campaign_matches_uninterrupted_run(
        seed in 0u64..1_000,
        shard_size in 1usize..=6,
        kill_after in 1u64..=3,
    ) {
        let m = manifest(seed, shard_size);
        let a = tmp(&format!("a-{seed}-{shard_size}-{kill_after}"));
        let b = tmp(&format!("b-{seed}-{shard_size}-{kill_after}"));

        // Uninterrupted reference run.
        let full = run_fresh(&m, &a, &opts(None), &CancelGroup::new()).unwrap();
        prop_assert!(full.summary.completed);

        // Interrupted run: stop after `kill_after` shards, then corrupt the
        // store the way a SIGKILL mid-shard would.
        let partial = run_fresh(&m, &b, &opts(Some(kill_after)), &CancelGroup::new()).unwrap();
        prop_assert!(partial.shards_committed <= kill_after);
        simulate_kill_mid_shard(&b);

        // Resume to completion (twice: the second resume must be a no-op).
        let resumed = resume(&b, &opts(None), &CancelGroup::new()).unwrap();
        prop_assert!(resumed.summary.completed);
        let noop = resume(&b, &opts(None), &CancelGroup::new()).unwrap();
        prop_assert_eq!(noop.shards_committed, 0);

        let reference = canonical_store_export(&a).unwrap();
        let rebuilt = canonical_store_export(&b).unwrap();
        prop_assert!(!reference.is_empty());
        prop_assert_eq!(
            reference, rebuilt,
            "resumed record set diverged (seed {}, shard_size {}, kill_after {})",
            seed, shard_size, kill_after
        );

        std::fs::remove_dir_all(&a).ok();
        std::fs::remove_dir_all(&b).ok();
    }
}

#[test]
fn report_over_resumed_store_matches_uninterrupted_report() {
    use mgrts_bench::campaign::{report, ReportKind};

    let m = manifest(2009, 5);
    let a = tmp("report-a");
    let b = tmp("report-b");
    run_fresh(&m, &a, &opts(None), &CancelGroup::new()).unwrap();
    run_fresh(&m, &b, &opts(Some(2)), &CancelGroup::new()).unwrap();
    simulate_kill_mid_shard(&b);
    resume(&b, &opts(None), &CancelGroup::new()).unwrap();
    // Tables I & II aggregate verdict counts only, so the resumed store
    // reproduces them exactly; Tables III/IV also print mean wall-times,
    // which are measurements and legitimately differ between runs — for
    // those we only require that both stores render.
    assert_eq!(
        report(&a, ReportKind::Table1).unwrap(),
        report(&b, ReportKind::Table1).unwrap(),
        "Table I/II diverged between uninterrupted and resumed stores"
    );
    for kind in [ReportKind::Table3, ReportKind::Table4] {
        assert!(!report(&b, kind).unwrap().is_empty());
    }
    std::fs::remove_dir_all(&a).ok();
    std::fs::remove_dir_all(&b).ok();
}

#[test]
fn summary_report_reads_wall_time_back_from_the_store() {
    use mgrts_bench::campaign::{report, summarize, ReportKind};
    use mgrts_bench::sink::{LocalStore, RecordStore};

    // A fresh store (manifest only) has no published summary: the wall
    // time is unknown, not zero.
    let m = manifest(7, 5);
    let dir = tmp("wall");
    let store = LocalStore::open(&dir).unwrap();
    store.write_manifest(&m.to_toml()).unwrap();
    let fresh = report(&dir, ReportKind::Summary).unwrap();
    assert!(fresh.contains(", wall n/a\n"), "{fresh}");

    // Once a run has published `BENCH_<name>.json`, re-reading the store
    // reports that run's wall time.
    let published = summarize(&m, &[], 1, 0, 4242);
    let json = serde_json::to_string_pretty(&published).unwrap();
    store.put_artifact("BENCH_resume-prop.json", &json).unwrap();
    let reread = report(&dir, ReportKind::Summary).unwrap();
    assert!(reread.contains(", wall 4242 ms\n"), "{reread}");

    // A real run round-trips its own measurement.
    let run = run_fresh(&m, &dir, &opts(None), &CancelGroup::new()).unwrap();
    let after = report(&dir, ReportKind::Summary).unwrap();
    assert!(
        after.contains(&format!(", wall {} ms\n", run.summary.wall_ms)),
        "{after}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
