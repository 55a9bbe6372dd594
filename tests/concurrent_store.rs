//! Concurrency parity for an engine's artifact store: `chromata serve`
//! multiplexes many clients over one engine, so its store must behave —
//! observably — as if the same analyses had run one at a time. Pinned
//! here:
//!
//! 1. **Verdict/digest parity under contention** — N threads analyzing
//!    an overlapping task set produce verdict renderings and
//!    evidence-chain digests byte-identical to a sequential cold
//!    baseline, for every thread and every task.
//! 2. **Counter coherence** — after (and despite) contention,
//!    `Engine::cache_stats()` satisfies `lookups == hits + misses` for every
//!    stage cache: every lookup is classified exactly once, no
//!    increment is lost or double-counted under the cache locks.

use chromata::{
    Analysis, ArtifactKind, Budget, CancelToken, DecisionCacheStats, Engine, PipelineOptions,
};
use chromata_task::library::{hourglass, identity_task, pinwheel, two_set_agreement};
use chromata_task::Task;

/// An overlapping task set: every worker analyzes all of these, so the
/// same cache entries are hit from many threads at once.
fn tasks() -> Vec<Task> {
    vec![
        hourglass(),
        two_set_agreement(),
        identity_task(2),
        identity_task(3),
        pinwheel(),
    ]
}

/// `(verdict rendering, evidence digest)` — the full observable answer.
fn fingerprint(a: &Analysis) -> (String, u64) {
    (a.verdict.to_string(), a.evidence.deterministic_digest())
}

fn analyze(engine: &Engine, task: &Task, options: PipelineOptions) -> Analysis {
    let tasks = std::slice::from_ref(task);
    let mut out = engine.analyze(tasks, options, &Budget::unlimited(), &CancelToken::new());
    out.remove(0)
}

fn stats_of(engine: &Engine, want: ArtifactKind) -> DecisionCacheStats {
    engine
        .cache_stats()
        .into_iter()
        .find(|(kind, _)| *kind == want)
        .map(|(_, stats)| stats)
        .unwrap_or_default()
}

fn assert_all_coherent(engine: &Engine, context: &str) {
    for (kind, stats) in engine.cache_stats() {
        assert!(
            stats.is_coherent(),
            "{context}: {kind} cache incoherent: lookups {} != hits {} + misses {}",
            stats.lookups,
            stats.hits,
            stats.misses
        );
    }
}

#[test]
fn concurrent_analyses_match_the_sequential_baseline() {
    let options = PipelineOptions::default();
    let tasks = tasks();

    // Sequential cold baseline.
    let sequential = Engine::new();
    let baseline: Vec<(String, u64)> = tasks
        .iter()
        .map(|t| fingerprint(&analyze(&sequential, t, options)))
        .collect();
    assert_all_coherent(&sequential, "sequential baseline");

    // N threads, each analyzing the full overlapping set (shuffled per
    // thread by rotation so lock acquisition orders differ), against a
    // fresh engine.
    let engine = Engine::new();
    const THREADS: usize = 8;
    const ROUNDS: usize = 3;
    let results: Vec<Vec<(usize, (String, u64))>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|worker| {
                let (tasks, engine) = (&tasks, &engine);
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for round in 0..ROUNDS {
                        for offset in 0..tasks.len() {
                            let i = (worker + round + offset) % tasks.len();
                            out.push((i, fingerprint(&analyze(engine, &tasks[i], options))));
                        }
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (worker, result) in results.iter().enumerate() {
        for (i, fp) in result {
            assert_eq!(
                fp,
                &baseline[*i],
                "worker {worker}, task #{i} ({}): concurrent answer diverged \
                 from the sequential cold baseline",
                tasks[*i].name()
            );
        }
    }
    assert_all_coherent(&engine, "after contention");
    let verdict = stats_of(&engine, ArtifactKind::Verdict);
    assert_eq!(verdict.lookups, (THREADS * ROUNDS * tasks.len()) as u64);
}

#[test]
fn stats_totals_add_up_under_contention() {
    let options = PipelineOptions::default();
    let tasks = tasks();

    let engine = Engine::new();
    const THREADS: usize = 6;
    std::thread::scope(|scope| {
        for worker in 0..THREADS {
            let (tasks, engine) = (&tasks, &engine);
            scope.spawn(move || {
                for offset in 0..tasks.len() {
                    let t = &tasks[(worker + offset) % tasks.len()];
                    let _ = analyze(engine, t, options);
                }
            });
        }
    });

    assert_all_coherent(&engine, "stats totals");
    // Every analysis looks its verdict up exactly once, and every
    // three-process one its split; racing misses may recompute, but
    // each distinct task is at least one miss and at most one per thread.
    let analyses = (THREADS * tasks.len()) as u64;
    let verdict = stats_of(&engine, ArtifactKind::Verdict);
    assert_eq!(verdict.lookups, analyses);
    let distinct = tasks.len() as u64;
    assert!(
        (distinct..=distinct * THREADS as u64).contains(&verdict.misses),
        "{verdict:?}"
    );
    let three_process = tasks.iter().filter(|t| t.process_count() == 3).count();
    let split = stats_of(&engine, ArtifactKind::Split);
    assert_eq!(split.lookups, (THREADS * three_process) as u64);
}
