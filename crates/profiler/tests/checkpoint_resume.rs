//! `profile_each` saves each condition to its checkpoint as soon as the
//! condition finishes, so a run killed part-way keeps every finished
//! condition, and a re-run resumes them bit-identically.

use stca_fault::{FaultPlan, RetryPolicy};
use stca_obs::json::Value;
use stca_profiler::executor::{profile_each, ExperimentSpec};
use stca_profiler::profile::{ProfileRow, ProfileSet};
use stca_profiler::sampler::CounterOrdering;
use stca_profiler::storage;
use stca_workloads::{BenchmarkId, RuntimeCondition};
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The `cond.*` entries of the checkpoint on disk (0 when there is none).
fn saved_conditions(path: &Path) -> usize {
    let Ok(text) = std::fs::read_to_string(path) else {
        return 0;
    };
    match Value::parse(&text)
        .expect("checkpoint is JSON")
        .get("entries")
    {
        Some(Value::Object(entries)) => entries.keys().filter(|k| k.starts_with("cond.")).count(),
        _ => panic!("checkpoint without entries"),
    }
}

fn rows_text(results: &[Result<Vec<ProfileRow>, String>]) -> Vec<String> {
    results
        .iter()
        .map(|r| {
            let rows = r.as_ref().expect("condition profiled").clone();
            storage::to_string(&ProfileSet { rows })
        })
        .collect()
}

#[test]
fn each_condition_is_saved_as_it_finishes() {
    let path =
        std::env::temp_dir().join(format!("stca-profile-resume-{}.json", std::process::id()));
    std::fs::remove_file(&path).ok();
    let conditions: Vec<RuntimeCondition> = (0..6)
        .map(|i| {
            let timeout = 0.5 + 0.5 * i as f64;
            RuntimeCondition::pair(BenchmarkId::Knn, 0.7, timeout, BenchmarkId::Bfs, 0.6, 1.5)
        })
        .collect();
    let seen: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(usize::MAX)).collect();
    let ran = AtomicUsize::new(0);
    let run = |checkpoint: Option<(&Path, &str)>| {
        profile_each(
            &conditions,
            |i, condition| {
                seen[i].store(saved_conditions(&path), Ordering::SeqCst);
                ran.fetch_add(1, Ordering::SeqCst);
                ExperimentSpec::quick(condition.clone(), 40 + i as u64)
            },
            CounterOrdering::Grouped,
            &FaultPlan::none(),
            &RetryPolicy::none(),
            checkpoint,
        )
        .expect("profiled")
    };
    let plain = rows_text(&run(None));
    assert!(!path.exists(), "no checkpoint asked for, none written");

    // two workers over six conditions: some worker starts a condition
    // after one of its own has finished, and must find it on disk
    let threads = stca_exec::threads();
    stca_exec::set_threads(2);
    let checkpointed = run(Some((&path, "meta")));
    stca_exec::set_threads(threads);
    let seen: Vec<usize> = seen.iter().map(|n| n.load(Ordering::SeqCst)).collect();
    assert!(
        seen.iter().any(|&n| n > 0 && n != usize::MAX),
        "no condition saw a finished condition on disk: {seen:?}"
    );
    assert_eq!(rows_text(&checkpointed), plain);
    assert_eq!(saved_conditions(&path), 6);

    // a re-run resumes every condition and runs none
    ran.store(0, Ordering::SeqCst);
    assert_eq!(rows_text(&run(Some((&path, "meta")))), plain);
    assert_eq!(ran.load(Ordering::SeqCst), 0);
    std::fs::remove_file(&path).ok();
}
