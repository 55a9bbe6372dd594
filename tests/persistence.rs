//! End-to-end persistence: the durable verdict cache must never change an
//! answer. The three acceptance properties pinned here:
//!
//! 1. **Digest parity** — verdicts and evidence-chain digests are
//!    byte-identical across a cold run, a warm-in-memory rerun, and a
//!    warm-from-disk rerun on a fresh engine.
//! 2. **Corruption tolerance** — a flipped byte or torn tail in a
//!    snapshot degrades to recovery counters and a re-derived artifact,
//!    never a wrong verdict or a panic.
//! 3. **Lifecycle** — configuration resolution, audit and clear behave
//!    as documented, including on a six-snapshot directory written
//!    before verdict-only persistence.
//!
//! Every test owns its engines, so tests run concurrently without
//! touching each other's caches.

use std::fs;
use std::path::{Path, PathBuf};

use chromata::{
    audit_cache_dir, clear_cache_dir, load_cache_dir, persist_now, Analysis, ArtifactKind, Budget,
    CacheDirConfig, CancelToken, Engine, PipelineOptions, SnapshotStatus, CACHE_DIR_ENV,
};
use chromata_task::library::{hourglass, identity_task, two_set_agreement};
use chromata_task::Task;

/// A unique, pre-cleaned scratch directory per test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chromata-e2e-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn tasks() -> Vec<Task> {
    vec![hourglass(), two_set_agreement(), identity_task(2)]
}

/// `(verdict rendering, evidence digest)` per task — the full observable
/// answer — decided on `engine`.
fn fingerprints(engine: &Engine, tasks: &[Task]) -> Vec<(String, u64)> {
    let options = PipelineOptions::default();
    let analyses = engine.analyze(tasks, options, &Budget::unlimited(), &CancelToken::new());
    analyses.iter().map(fingerprint).collect()
}

fn fingerprint(a: &Analysis) -> (String, u64) {
    (a.verdict.to_string(), a.evidence.deterministic_digest())
}

/// `(hits, misses)` of `engine`'s verdict cache.
fn verdict_counts(engine: &Engine) -> (u64, u64) {
    let stats = engine
        .cache_stats()
        .into_iter()
        .find(|(kind, _)| *kind == ArtifactKind::Verdict)
        .map(|(_, stats)| stats)
        .unwrap_or_default();
    (stats.hits, stats.misses)
}

/// A cold engine restored from `dir`.
fn restored(dir: &Path) -> (Engine, chromata::LoadReport) {
    let engine = Engine::new();
    let loaded = engine.load(dir);
    (engine, loaded)
}

#[test]
fn digest_parity_cold_warm_memory_warm_disk() {
    let dir = scratch_dir("parity");
    let suite = tasks();

    let engine = Engine::new();
    let cold = fingerprints(&engine, &suite);
    assert_eq!(verdict_counts(&engine), (0, 3), "a cold engine misses");

    // Warm-in-memory: every verdict replays from the live caches.
    let warm_memory = fingerprints(&engine, &suite);
    assert_eq!(cold, warm_memory, "in-memory replay changed an answer");
    assert_eq!(verdict_counts(&engine), (3, 3), "a warm engine hits");

    // Snapshot, restore into a fresh engine, decide again.
    let saved = engine.persist(&dir).expect("snapshot write succeeds");
    assert_eq!(
        saved.files_written, 1,
        "only the verdict cache is persisted"
    );
    assert_eq!(saved.entries_written, 3);

    let (warm, loaded) = restored(&dir);
    assert_eq!(loaded.restored, 3, "{loaded:?}");
    assert_eq!(loaded.recovery_events(), 0, "{loaded:?}");
    assert_eq!(loaded.missing, 0, "{loaded:?}");
    let merged = verdict_counts(&warm);

    let warm_disk = fingerprints(&warm, &suite);
    assert_eq!(cold, warm_disk, "disk-restored replay changed an answer");
    assert_eq!(
        verdict_counts(&warm),
        (merged.0 + 3, merged.1),
        "every restored verdict is a hit"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flipped_byte_degrades_to_recovery_counters_not_a_wrong_verdict() {
    let dir = scratch_dir("flip");
    let suite = [hourglass()];

    let engine = Engine::new();
    let cold = fingerprints(&engine, &suite);
    engine.persist(&dir).expect("snapshot write succeeds");

    // Flip one payload byte in the verdict snapshot.
    let path = dir.join("verdict.snap");
    let mut bytes = fs::read(&path).expect("snapshot exists");
    let n = bytes.len();
    bytes[n - 3] ^= 0x01;
    fs::write(&path, &bytes).expect("rewrite snapshot");

    // The audit sees the damage...
    let audit = audit_cache_dir(&dir);
    assert_eq!(audit.kind, ArtifactKind::Verdict);
    assert!(!audit.is_clean(), "{audit:?}");

    // ...the load classifies it as a recovery event, not a failure...
    let (warm, loaded) = restored(&dir);
    assert_eq!(loaded.corrupt_entries, 1, "{loaded:?}");
    assert_eq!(loaded.restored, 0, "{loaded:?}");

    // ...and the verdict is simply re-derived, byte-identical.
    let before = verdict_counts(&warm);
    assert_eq!(cold, fingerprints(&warm, &suite));
    assert_eq!(
        verdict_counts(&warm),
        (before.0, before.1 + 1),
        "re-derived"
    );

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_skips_only_the_final_record() {
    let dir = scratch_dir("torn");
    let suite = [two_set_agreement()];

    let engine = Engine::new();
    let cold = fingerprints(&engine, &suite);
    engine.persist(&dir).expect("snapshot write succeeds");

    // Tear the verdict snapshot mid-way through its last record, as a
    // crash without the atomic-rename protocol would.
    let path = dir.join("verdict.snap");
    let bytes = fs::read(&path).expect("snapshot exists");
    fs::write(&path, &bytes[..bytes.len() - 2]).expect("rewrite snapshot");

    let (warm, loaded) = restored(&dir);
    assert_eq!(loaded.torn_entries, 1, "{loaded:?}");
    assert_eq!(loaded.rejected_snapshots, 0, "{loaded:?}");
    assert_eq!(loaded.restored, 0, "{loaded:?}");

    assert_eq!(cold, fingerprints(&warm, &suite));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn config_resolution_explicit_beats_env_beats_disabled() {
    let explicit = PathBuf::from("/tmp/chromata-explicit");
    let from_env = PathBuf::from("/tmp/chromata-env");

    std::env::set_var(CACHE_DIR_ENV, &from_env);
    let config = CacheDirConfig::resolve(Some(explicit.clone()));
    assert_eq!(config.dir(), Some(explicit.as_path()));
    let config = CacheDirConfig::resolve(None);
    assert_eq!(config.dir(), Some(from_env.as_path()));
    std::env::remove_var(CACHE_DIR_ENV);

    let config = CacheDirConfig::resolve(None);
    assert!(!config.is_enabled());
    assert_eq!(config.dir(), None);
    // Disabled persistence is inert end to end.
    assert!(load_cache_dir(&config).is_none());
    assert!(persist_now(&config).is_none());
}

#[test]
fn clear_cache_dir_removes_every_snapshot() {
    let dir = scratch_dir("clear");

    let engine = Engine::new();
    let _ = fingerprints(&engine, &[identity_task(2)]);
    let saved = engine.persist(&dir).expect("snapshot write succeeds");
    assert_eq!(saved.entries_written, 1, "{saved:?}");
    let written: Vec<_> = fs::read_dir(&dir)
        .expect("cache directory exists")
        .map(|e| e.expect("directory entry").file_name())
        .collect();
    assert_eq!(written, ["verdict.snap"], "one snapshot, the verdict");

    let removed = clear_cache_dir(&dir).expect("clear succeeds");
    assert_eq!(removed, 1);
    assert_eq!(audit_cache_dir(&dir).status, SnapshotStatus::Missing);

    let _ = fs::remove_dir_all(&dir);
}

/// A cache directory written before verdict-only persistence holds all
/// six per-kind snapshots (`batch identity --cache-dir`). Its verdict
/// must still restore cleanly and answer from the cache; the five other
/// files are ignored on load and still removed by `clear_cache_dir`.
#[test]
fn six_snapshot_directory_restores_verdicts_and_clears_every_file() {
    let fixture = PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/fixtures/six-kind-cache"
    ));
    let dir = scratch_dir("six-kinds");
    fs::create_dir_all(&dir).expect("mkdir");
    for entry in fs::read_dir(&fixture).expect("fixture exists") {
        let entry = entry.expect("fixture entry");
        fs::copy(entry.path(), dir.join(entry.file_name())).expect("copy fixture");
    }
    let suite = [identity_task(3)];

    let cold = fingerprints(&Engine::new(), &suite);

    let (warm, loaded) = restored(&dir);
    assert_eq!(loaded.restored, 1, "{loaded:?}");
    assert_eq!(loaded.recovery_events(), 0, "{loaded:?}");
    assert!(audit_cache_dir(&dir).is_clean());

    let before = verdict_counts(&warm);
    assert_eq!(
        cold,
        fingerprints(&warm, &suite),
        "the restored verdict changed an answer"
    );
    assert_eq!(
        verdict_counts(&warm),
        (before.0 + 1, before.1),
        "the verdict came from the restored record"
    );

    let removed = clear_cache_dir(&dir).expect("clear succeeds");
    assert_eq!(removed, 6, "all six per-kind snapshots removed");
    assert_eq!(fs::read_dir(&dir).expect("dir kept").count(), 0);

    let _ = fs::remove_dir_all(&dir);
}
