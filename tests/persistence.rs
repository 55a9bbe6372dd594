//! End-to-end persistence: durable stage caches must never change an
//! answer. The three acceptance properties pinned here:
//!
//! 1. **Digest parity** — verdicts and evidence-chain digests are
//!    byte-identical across a cold run, a warm-in-memory rerun, and a
//!    warm-from-disk rerun in a wiped store.
//! 2. **Corruption tolerance** — a flipped byte or torn tail in a
//!    snapshot degrades to recovery counters and a re-derived artifact,
//!    never a wrong verdict or a panic.
//! 3. **Lifecycle** — configuration resolution, the once-per-directory
//!    warm-start guard, audit and clear behave as documented, including
//!    on a six-snapshot directory written before verdict-only
//!    persistence.
//!
//! Every test funnels through [`store_guard`]: the stage caches are
//! process-wide, so tests that clear or repopulate them must not
//! interleave (the default test harness is multi-threaded).

use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, OnceLock, PoisonError};

use chromata::{
    analyze, analyze_persistent, audit_cache_dir, clear_cache_dir, clear_stage_caches,
    load_cache_dir, persist_now, stage_cache_stats, warm_start, Analysis, ArtifactKind,
    CacheDirConfig, PipelineOptions, SnapshotStatus, CACHE_DIR_ENV,
};
use chromata_task::library::{hourglass, identity_task, two_set_agreement};
use chromata_task::Task;

/// Serializes every test in this binary: they all mutate the one
/// process-wide artifact store (and one of them the process environment).
fn store_guard() -> std::sync::MutexGuard<'static, ()> {
    static GUARD: OnceLock<Mutex<()>> = OnceLock::new();
    GUARD
        .get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// A unique, pre-cleaned scratch directory per test.
fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("chromata-e2e-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn tasks() -> Vec<Task> {
    vec![hourglass(), two_set_agreement(), identity_task(2)]
}

/// `(verdict rendering, evidence digest)` — the full observable answer.
fn fingerprint(a: &Analysis) -> (String, u64) {
    (a.verdict.to_string(), a.evidence.deterministic_digest())
}

#[test]
fn digest_parity_cold_warm_memory_warm_disk() {
    let _guard = store_guard();
    let dir = scratch_dir("parity");
    let config = CacheDirConfig::at(&dir);
    let options = PipelineOptions::default();
    let suite = tasks();

    clear_stage_caches();
    let cold: Vec<_> = suite
        .iter()
        .map(|t| fingerprint(&analyze(t, options)))
        .collect();

    // Warm-in-memory: every stage replays from the live caches.
    let warm_memory: Vec<_> = suite
        .iter()
        .map(|t| fingerprint(&analyze(t, options)))
        .collect();
    assert_eq!(cold, warm_memory, "in-memory replay changed an answer");

    // Snapshot, wipe the store, restore from disk, decide again.
    let saved = persist_now(&config)
        .expect("persistence is enabled")
        .expect("snapshot write succeeds");
    assert_eq!(
        saved.files_written, 1,
        "only the verdict cache is persisted"
    );
    assert!(saved.entries_written > 0);

    clear_stage_caches();
    let loaded = load_cache_dir(&config).expect("persistence is enabled");
    assert!(loaded.restored > 0, "{loaded:?}");
    assert_eq!(loaded.recovery_events(), 0, "{loaded:?}");
    assert_eq!(loaded.missing, 0, "{loaded:?}");

    let warm_disk: Vec<_> = suite
        .iter()
        .map(|t| fingerprint(&analyze(t, options)))
        .collect();
    assert_eq!(cold, warm_disk, "disk-restored replay changed an answer");

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn persistent_facade_loads_once_per_directory() {
    let _guard = store_guard();
    let dir = scratch_dir("facade");
    let config = CacheDirConfig::at(&dir);
    let options = PipelineOptions::default();
    clear_stage_caches();

    let (first, report) = analyze_persistent(&hourglass(), options, &config);
    let loaded = report
        .loaded
        .expect("first touch of a directory warm-starts");
    assert_eq!(loaded.missing, 1, "a fresh directory has no snapshot");
    assert_eq!(loaded.restored, 0);
    let saved = report.saved.expect("snapshot after analysis");
    assert!(saved.entries_written > 0);
    assert!(report.save_error.is_none());

    // Same directory again in the same process: the warm start is a
    // no-op (the guard), the answer is identical.
    let (second, report) = analyze_persistent(&hourglass(), options, &config);
    assert!(report.loaded.is_none(), "{:?}", report.loaded);
    assert_eq!(fingerprint(&first), fingerprint(&second));

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn flipped_byte_degrades_to_recovery_counters_not_a_wrong_verdict() {
    let _guard = store_guard();
    let dir = scratch_dir("flip");
    let config = CacheDirConfig::at(&dir);
    let options = PipelineOptions::default();

    clear_stage_caches();
    let cold = fingerprint(&analyze(&hourglass(), options));
    persist_now(&config)
        .expect("persistence is enabled")
        .expect("snapshot write succeeds");

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
    clear_stage_caches();
    let loaded = load_cache_dir(&config).expect("persistence is enabled");
    assert!(loaded.recovery_events() >= 1, "{loaded:?}");

    // ...and the verdict is simply re-derived, byte-identical.
    let recovered = fingerprint(&analyze(&hourglass(), options));
    assert_eq!(cold, recovered);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_skips_only_the_final_record() {
    let _guard = store_guard();
    let dir = scratch_dir("torn");
    let config = CacheDirConfig::at(&dir);
    let options = PipelineOptions::default();

    clear_stage_caches();
    let cold = fingerprint(&analyze(&two_set_agreement(), options));
    persist_now(&config)
        .expect("persistence is enabled")
        .expect("snapshot write succeeds");

    // Tear the verdict snapshot mid-way through its last record, as a
    // crash without the atomic-rename protocol would.
    let path = dir.join("verdict.snap");
    let bytes = fs::read(&path).expect("snapshot exists");
    fs::write(&path, &bytes[..bytes.len() - 2]).expect("rewrite snapshot");

    clear_stage_caches();
    let loaded = load_cache_dir(&config).expect("persistence is enabled");
    assert_eq!(loaded.torn_entries, 1, "{loaded:?}");
    assert_eq!(loaded.rejected_snapshots, 0, "{loaded:?}");

    let recovered = fingerprint(&analyze(&two_set_agreement(), options));
    assert_eq!(cold, recovered);

    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn config_resolution_explicit_beats_env_beats_disabled() {
    let _guard = store_guard();
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
    assert!(warm_start(&config).is_none());
    assert!(persist_now(&config).is_none());
}

#[test]
fn clear_cache_dir_removes_every_snapshot() {
    let _guard = store_guard();
    let dir = scratch_dir("clear");
    let config = CacheDirConfig::at(&dir);
    clear_stage_caches();

    let (_, report) = analyze_persistent(&identity_task(2), PipelineOptions::default(), &config);
    assert!(report.saved.is_some(), "{report:?}");
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
    let _guard = store_guard();
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
    let options = PipelineOptions::default();
    let task = identity_task(3);

    clear_stage_caches();
    let cold = fingerprint(&analyze(&task, options));

    clear_stage_caches();
    let loaded = load_cache_dir(&CacheDirConfig::at(&dir)).expect("persistence is enabled");
    assert_eq!(loaded.restored, 1, "{loaded:?}");
    assert_eq!(loaded.recovery_events(), 0, "{loaded:?}");
    assert!(audit_cache_dir(&dir).is_clean());

    let warm = fingerprint(&analyze(&task, options));
    assert_eq!(cold, warm, "the restored verdict changed an answer");
    let verdict_hits = stage_cache_stats()
        .into_iter()
        .find(|(kind, _)| *kind == ArtifactKind::Verdict)
        .map(|(_, stats)| stats.hits);
    assert!(
        verdict_hits.is_some_and(|hits| hits >= 1),
        "the verdict came from the restored record"
    );

    let removed = clear_cache_dir(&dir).expect("clear succeeds");
    assert_eq!(removed, 6, "all six per-kind snapshots removed");
    assert_eq!(fs::read_dir(&dir).expect("dir kept").count(), 0);

    let _ = fs::remove_dir_all(&dir);
}
