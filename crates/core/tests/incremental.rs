//! Cross-crate proof of the re-analysis contract (public API only): for
//! seeded near-duplicate mutants of library tasks, a warm run through
//! one shared engine returns the same verdict and a byte-identical
//! `deterministic_digest` as a cold run on a fresh engine — including
//! the edit-one-entry scenario, where a task is re-analyzed after one
//! carrier entry of an already-decided task changed.

use chromata::{Analysis, Budget, CancelToken, Engine, PipelineOptions, Verdict};
use chromata_task::library::{consensus, hourglass, identity_task, pinwheel, two_set_agreement};
use chromata_task::{mutate_task, Task};
use chromata_topology::{Complex, Simplex, Vertex};

/// Seeded mutants derived per library task (the satellite contract).
const MUTANTS_PER_TASK: u64 = 100;

/// The campaign seed: `(seed, index)` fully determines each mutant.
const SEED: u64 = 0xC0F_FEE;

fn library_bases() -> Vec<Task> {
    vec![
        consensus(3),
        two_set_agreement(),
        hourglass(),
        pinwheel(),
        identity_task(3),
    ]
}

fn verdict_label(v: &Verdict) -> String {
    format!("{v}")
}

fn analyze(engine: &Engine, task: &Task, options: PipelineOptions) -> Analysis {
    let tasks = std::slice::from_ref(task);
    let mut out = engine.analyze(tasks, options, &Budget::unlimited(), &CancelToken::new());
    out.remove(0)
}

#[test]
fn incremental_reanalysis_matches_cold_runs_and_reuses_branches() {
    let bases = library_bases();
    let options = PipelineOptions::default();

    // -- Cold reference: every mutant decided on a fresh engine. ------
    let mut cold: Vec<(String, String, u64)> = Vec::new();
    for base in &bases {
        for index in 0..MUTANTS_PER_TASK {
            let mutant = mutate_task(base, SEED, index);
            let analysis = analyze(&Engine::new(), &mutant, options);
            cold.push((
                mutant.name().to_owned(),
                verdict_label(&analysis.verdict),
                analysis.evidence.deterministic_digest(),
            ));
        }
    }

    // -- Warm pass: the same mutants through one shared engine. -------
    let warm = Engine::new();
    let mut next = cold.iter();
    for base in &bases {
        for index in 0..MUTANTS_PER_TASK {
            let mutant = mutate_task(base, SEED, index);
            let analysis = analyze(&warm, &mutant, options);
            let (name, verdict, digest) = next.next().expect("cold reference entry");
            assert_eq!(mutant.name(), name, "mutation is deterministic");
            assert_eq!(
                &verdict_label(&analysis.verdict),
                verdict,
                "warm verdict differs for {name}"
            );
            assert_eq!(
                analysis.evidence.deterministic_digest(),
                *digest,
                "warm evidence digest differs for {name}"
            );
        }
    }

    // -- Edit one carrier entry of an already-decided task. ------------
    let v = |c: u8, x: i64| Vertex::of(c, x);
    let t1 = Simplex::new(vec![v(0, 0), v(1, 0), v(2, 0)]);
    let t2 = Simplex::new(vec![v(0, 1), v(1, 0), v(2, 0)]);
    let input = Complex::from_facets([t1.clone(), t2.clone()]);
    let base = Task::from_facet_delta("edit-base", input.clone(), |sigma| vec![sigma.clone()])
        .expect("identity-style task is valid");
    let edited = Task::from_facet_delta("edit-one-entry", input, |sigma| {
        if *sigma == t2 {
            vec![t2.substituted(&v(0, 1), v(0, 7))]
        } else {
            vec![sigma.clone()]
        }
    })
    .expect("edited task is valid");

    let cold_edited = analyze(&Engine::new(), &edited, options);
    let cold_digest = cold_edited.evidence.deterministic_digest();

    let engine = Engine::new();
    let _ = analyze(&engine, &base, options);
    let warm_edited = analyze(&engine, &edited, options);

    // The engine that decided the base re-decides the edit exactly as
    // a fresh one does.
    assert_eq!(
        verdict_label(&warm_edited.verdict),
        verdict_label(&cold_edited.verdict)
    );
    assert_eq!(warm_edited.evidence.deterministic_digest(), cold_digest);
}
