//! Determinism regression: the engine's bounded scheduler, the old serial
//! path, and a recorded-baseline replay must all produce bit-identical
//! `SimResult` rows.

use restune::engine::{
    base_key, checkpoint_path, corpus_base_key, load_baseline, run_suite_supervised, save_baseline,
    suite_key, try_run_suite,
};
use restune::experiment::{base_suite_supervised, run_suite, table3_supervised};
use restune::{
    run, FaultPlan, FaultSpec, RunPolicy, SimConfig, SupervisorConfig, Technique, TuningConfig,
};
use workloads::{corpus, spec2k};

const APPS: [&str; 3] = ["mcf", "parser", "fma3d"];

fn profiles() -> Vec<workloads::WorkloadProfile> {
    APPS.iter()
        .map(|n| spec2k::by_name(n).expect("app is in the suite"))
        .collect()
}

#[test]
fn scheduler_serial_and_replay_agree_bit_for_bit() {
    let profiles = profiles();
    let sim = SimConfig::isca04(30_000);

    // 1. The bounded worker pool.
    let pooled = try_run_suite(&profiles, &Technique::Base, &sim).expect("suite runs");
    // 2. The public suite API (same pool, panicking wrapper).
    let suite = run_suite(&profiles, &Technique::Base, &sim);
    // 3. A plain serial loop.
    let serial: Vec<_> = profiles
        .iter()
        .map(|p| run(p, &Technique::Base, &sim))
        .collect();
    // 4. A save/load round trip through the recorded-baseline format.
    let key = base_key(&sim);
    let path = std::env::temp_dir().join("restune-determinism-baseline.tsv");
    save_baseline(&path, &key, &serial).expect("baseline writes");
    let replayed = load_baseline(&path, &key)
        .expect("baseline reads")
        .expect("fingerprint matches");
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        pooled.results, serial,
        "worker pool must match the serial loop"
    );
    assert_eq!(suite, serial, "run_suite must match the serial loop");
    assert_eq!(replayed, serial, "baseline replay must be bit-identical");
}

#[test]
fn scheduler_is_deterministic_under_techniques_too() {
    let profiles = profiles();
    let sim = SimConfig::isca04(30_000);
    let technique = Technique::Tuning(TuningConfig::isca04_table1(100));
    let a = run_suite(&profiles, &technique, &sim);
    let b = run_suite(&profiles, &technique, &sim);
    let serial: Vec<_> = profiles.iter().map(|p| run(p, &technique, &sim)).collect();
    assert_eq!(a, b, "repeated pooled runs must agree");
    assert_eq!(a, serial, "pooled tuning runs must match serial");
}

#[test]
fn one_worker_pool_matches_wide_pool() {
    // RESTUNE_WORKERS is read per suite call, so pin it for a narrow run.
    // (Env mutation is process-wide; restore promptly and tolerate the
    // variable being observed by a concurrent suite — determinism means the
    // results cannot differ either way.)
    let profiles = profiles();
    let sim = SimConfig::isca04(20_000);
    let wide = run_suite(&profiles, &Technique::Base, &sim);
    std::env::set_var("RESTUNE_WORKERS", "1");
    let narrow = run_suite(&profiles, &Technique::Base, &sim);
    std::env::remove_var("RESTUNE_WORKERS");
    assert_eq!(wide, narrow, "pool width must not affect results");
}

#[test]
fn corpus_pool_serial_and_baseline_replay_agree_bit_for_bit() {
    // The replayed-trace workload class through the same three paths the
    // synthetic suite is pinned on: worker pool, serial loop, and a
    // recorded-baseline round trip (whose rows resolve corpus names
    // through the workload registry on parse).
    let profiles = corpus::all();
    let sim = SimConfig::isca04(20_000);

    let pooled = try_run_suite(&profiles, &Technique::Base, &sim).expect("corpus suite runs");
    let serial: Vec<_> = profiles
        .iter()
        .map(|p| run(p, &Technique::Base, &sim))
        .collect();

    let key = corpus_base_key(&sim);
    let path = std::env::temp_dir().join(format!(
        "restune-determinism-corpus-baseline-{}.tsv",
        std::process::id()
    ));
    save_baseline(&path, &key, &serial).expect("corpus baseline writes");
    let replayed = load_baseline(&path, &key)
        .expect("corpus baseline reads")
        .expect("fingerprint matches");
    let _ = std::fs::remove_file(&path);

    assert_eq!(
        pooled.results, serial,
        "corpus worker pool must match the serial loop"
    );
    assert_eq!(
        replayed, serial,
        "corpus baseline replay must be bit-identical"
    );
}

#[test]
fn corpus_suite_checkpoints_and_resumes_bit_exactly() {
    let profiles: Vec<_> = ["hazards", "quicksort", "resonance"]
        .iter()
        .map(|n| corpus::by_name(n).expect("app is in the corpus"))
        .collect();
    let sim = SimConfig::isca04(15_000);
    let dir = std::env::temp_dir().join(format!(
        "restune-determinism-corpus-ckpt-{}",
        std::process::id()
    ));
    let sup = SupervisorConfig {
        resume: true,
        checkpoint_dir: Some(dir.clone()),
        max_retries: 0,
        ..SupervisorConfig::default()
    };

    let reference = try_run_suite(&profiles, &Technique::Base, &sim).expect("corpus suite runs");

    // Crash the middle app, leaving a two-app checkpoint behind.
    let crash_plan = FaultPlan::none().with_persistent_fault("quicksort", FaultSpec::WorkerPanic);
    let interrupted = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &crash_plan);
    assert_eq!(interrupted.completed(), 2);

    let key = suite_key(&profiles, &Technique::Base, &sim, &FaultPlan::none());
    let path = checkpoint_path(&sup, key.fingerprint);
    assert!(path.exists(), "a degraded corpus run keeps its checkpoint");

    // Clean resume: checkpointed corpus apps replay, the crashed one
    // re-simulates, and the merged suite matches the uninterrupted run.
    let resumed = run_suite_supervised(&profiles, &Technique::Base, &sim, &sup, &FaultPlan::none());
    assert_eq!(
        resumed.all_results().expect("resume completes the suite"),
        reference.results
    );
    let replayed: Vec<bool> = resumed
        .metrics
        .iter()
        .map(|m| m.expect("all apps have metrics").replayed)
        .collect();
    assert_eq!(
        replayed,
        vec![true, false, true],
        "checkpointed corpus apps replay; the crashed one re-simulates"
    );
    assert!(
        !path.exists(),
        "a fully successful corpus suite retires its checkpoint"
    );

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn table_drivers_share_one_base_simulation() {
    // The acceptance check for the memoized engine: run the table3 driver's
    // flow twice in one process and count actual base-suite simulations.
    let sim = SimConfig::isca04(12_345);
    let _ = std::fs::remove_file(restune::engine::baseline_path(&sim));
    assert_eq!(restune::engine::base_suite_simulations(&sim), 0);

    let policy = RunPolicy::none();
    for _ in 0..2 {
        let base = base_suite_supervised(&sim, &policy);
        let (rows, _) = table3_supervised(&sim, &[100], &base, &policy, None);
        assert_eq!(rows.len(), 1);
    }

    assert_eq!(
        restune::engine::base_suite_simulations(&sim),
        1,
        "two table3 drivers in one process must share a single base simulation"
    );
    let stats = restune::engine::base_cache_stats();
    assert!(stats.hits >= 1, "the second driver must hit the cache");
    let _ = std::fs::remove_file(restune::engine::baseline_path(&sim));
}
