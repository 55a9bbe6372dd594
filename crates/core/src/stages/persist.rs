//! Crash-safe persistence for the [`ArtifactStore`]: a durable verdict
//! snapshot with corruption-tolerant recovery.
//!
//! Only the verdict cache crosses a process boundary. Its entries are
//! the engine's answers (verdict, deciding tier, replayable stage
//! trace), keyed by canonical task and ACT bound; every other stage
//! artifact is a deterministic intermediate the engine rebuilds from the
//! task, so a warm restart costs one file instead of six. The snapshot
//! lives at `<dir>/verdict.snap`, written with the classic durable
//! protocol — temp file, fsync, atomic rename, directory fsync — so a
//! crash at any instant leaves the file equal to either the old
//! snapshot or the new one, never a mix. The format is line-oriented
//! and per-record-checksummed:
//!
//! ```text
//! chromata-snap v2 verdict\n         (magic + version + kind)
//! H <fnv1a-16hex> [cap,h,m,e]\n      (capacity + cumulative counters)
//! E <fnv1a-16hex> [key,value]\n      (one cache entry, insertion order)
//! ```
//!
//! Version history: v2 re-keyed the granular stage snapshots per split
//! branch. A v1 snapshot fails the magic check and is rejected wholesale
//! — the engine degrades to a cold recompute, which is always sound.
//! Dropping the five non-verdict kinds left the verdict format as it
//! was, so the magic stays v2: a directory written with all six kinds
//! still restores its `verdict.snap`, and [`clear_cache_dir`] removes
//! the other five files, which loading ignores. `reuse_hits` is
//! process-local telemetry and is deliberately absent from the `H`
//! record.
//!
//! Loading is paranoid and graceful — persistence must never poison a
//! verdict. The recovery taxonomy (counted per cause in
//! [`DecisionCacheStats`](super::cache::DecisionCacheStats)):
//!
//! * **rejected snapshot** — missing newline before the header, bad
//!   magic, unsupported version, unreadable header, or an I/O error:
//!   the whole file is discarded and the cache stays as it was;
//! * **torn entry** — a trailing record with no final newline (crash
//!   mid-append): the fragment is skipped, every complete record
//!   before it is kept;
//! * **corrupt entry** — a complete-looking record whose checksum or
//!   payload fails to decode: the record is skipped.
//!
//! Budget-starved verdicts never reach the verdict cache (the engine
//! refuses to memoize them), so they never reach disk either.
//!
//! All filesystem traffic goes through the [`PersistIo`] seam so the
//! test suite can inject every `io::ErrorKind` at every operation and
//! kill the process model at every point of the write protocol (rule
//! D3 confines `std::fs` to this module).

use std::fmt;
use std::io;
use std::path::{Path, PathBuf};

use chromata_task::Task;
use chromata_topology::govern;

use super::cache::{ArtifactKind, ArtifactStore, DecisionCacheStats, ALL_KINDS};
use super::DecisionRecord;

/// One persisted verdict-cache entry: `(canonical task, ACT bound)` →
/// the decision record.
type VerdictEntry = ((Task, usize), DecisionRecord);

/// The one artifact kind that is snapshot to disk.
const KIND: ArtifactKind = ArtifactKind::Verdict;

/// Magic prefix of the snapshot file (version-bearing): the first line
/// is this prefix followed by the artifact-kind name. Bumped to v2 with
/// the per-branch re-keying of the since-dropped link-graph/presentation/
/// homology snapshots; v1 snapshots are rejected (degrading to
/// recompute), never reinterpreted.
const MAGIC_PREFIX: &str = "chromata-snap v2 ";

/// Environment variable read (via [`govern::env_string`], rule D2) by
/// [`CacheDirConfig::from_env`].
pub const CACHE_DIR_ENV: &str = "CHROMATA_CACHE_DIR";

/// FNV-1a over a byte string — the per-record checksum. Same constants
/// as the workspace's structural fingerprinting, applied to raw bytes.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// The I/O seam
// ---------------------------------------------------------------------------

/// The filesystem operations the persist layer performs, factored out so
/// tests can fail or kill any one of them (mirrors `runtime/fault.rs`).
pub(crate) trait PersistIo {
    /// Creates the cache directory (and parents).
    fn create_dir_all(&self, dir: &Path) -> io::Result<()>;
    /// Writes the full snapshot body to the temp path.
    fn write_tmp(&self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flushes the temp file's contents to stable storage.
    fn sync_tmp(&self, path: &Path) -> io::Result<()>;
    /// Atomically renames the temp file over the final snapshot.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Flushes the directory entry of the rename to stable storage
    /// (best effort — not all platforms support directory fsync).
    fn sync_dir(&self, dir: &Path) -> io::Result<()>;
    /// Reads a whole file; `Ok(None)` when it does not exist.
    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>>;
    /// Removes a file; missing files are not an error.
    fn remove(&self, path: &Path) -> io::Result<()>;
}

/// The real filesystem.
pub(crate) struct RealIo;

impl PersistIo for RealIo {
    fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn write_tmp(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        std::fs::write(path, bytes)
    }

    fn sync_tmp(&self, path: &Path) -> io::Result<()> {
        std::fs::File::open(path)?.sync_all()
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }

    fn sync_dir(&self, dir: &Path) -> io::Result<()> {
        // Directory handles cannot be fsynced everywhere; swallow the
        // platform's refusal but surface real failures.
        match std::fs::File::open(dir).and_then(|d| d.sync_all()) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::PermissionDenied => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
        match std::fs::read(path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        match std::fs::remove_file(path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }
}

// ---------------------------------------------------------------------------
// Errors and reports
// ---------------------------------------------------------------------------

/// A persistence failure: which protocol step failed, on which path,
/// and the underlying message. Saving aborts on the first error (the
/// atomic protocol keeps the previous snapshot on disk intact); loading
/// never raises this — corruption degrades to recovery counters
/// instead.
#[derive(Clone, Debug)]
pub struct PersistError {
    /// Protocol step that failed (`create-dir`, `encode`, `write-tmp`,
    /// `sync-tmp`, `rename`, `sync-dir`, `remove`).
    pub step: &'static str,
    /// The path the step was operating on.
    pub path: PathBuf,
    /// The underlying error message.
    pub message: String,
}

impl PersistError {
    fn new(step: &'static str, path: &Path, message: impl fmt::Display) -> Self {
        PersistError {
            step,
            path: path.to_path_buf(),
            message: message.to_string(),
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "cache persistence failed at {} ({}): {}",
            self.step,
            self.path.display(),
            self.message
        )
    }
}

impl std::error::Error for PersistError {}

/// What a successful [`Engine::persist`](crate::Engine::persist) wrote.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct SaveReport {
    /// Snapshot files written (the verdict snapshot: always 1).
    pub files_written: usize,
    /// Verdict-cache entries persisted.
    pub entries_written: u64,
}

/// What an [`Engine::load`](crate::Engine::load) recovered from the verdict
/// snapshot. The same per-cause counters also land in the verdict
/// cache's [`DecisionCacheStats`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct LoadReport {
    /// Entries restored intact into the verdict cache.
    pub restored: u64,
    /// Whole snapshot files discarded (bad magic/version/header/read).
    pub rejected_snapshots: u64,
    /// Truncated trailing records skipped (torn writes).
    pub torn_entries: u64,
    /// Complete-looking records skipped (checksum/payload).
    pub corrupt_entries: u64,
    /// Snapshot files absent (1 for a fresh directory, else 0).
    pub missing: usize,
}

impl LoadReport {
    /// Sum of the per-cause recovery counters.
    #[must_use]
    pub fn recovery_events(&self) -> u64 {
        self.rejected_snapshots + self.torn_entries + self.corrupt_entries
    }
}

// ---------------------------------------------------------------------------
// Snapshot rendering
// ---------------------------------------------------------------------------

fn snapshot_path(dir: &Path, kind: ArtifactKind) -> PathBuf {
    dir.join(format!("{}.snap", kind.name()))
}

fn tmp_path(dir: &Path, kind: ArtifactKind) -> PathBuf {
    dir.join(format!("{}.snap.tmp", kind.name()))
}

/// Appends `<tag> <16-hex fnv1a(payload)> <payload>\n`.
fn push_record(out: &mut String, tag: char, payload: &str) {
    out.push(tag);
    out.push(' ');
    out.push_str(&format!("{:016x}", fnv1a(payload.as_bytes())));
    out.push(' ');
    out.push_str(payload);
    out.push('\n');
}

/// Renders the full snapshot body: magic, header, entries in insertion
/// (eviction) order.
fn render_snapshot(
    capacity: usize,
    stats: DecisionCacheStats,
    entries: &[VerdictEntry],
) -> Result<String, String> {
    let mut out = String::new();
    out.push_str(MAGIC_PREFIX);
    out.push_str(KIND.name());
    out.push('\n');
    let header = serde_json::to_string(&vec![
        capacity as u64,
        stats.hits,
        stats.misses,
        stats.evictions,
    ])
    .map_err(|e| format!("header: {e}"))?;
    push_record(&mut out, 'H', &header);
    for entry in entries {
        let payload = serde_json::to_string(entry).map_err(|e| format!("entry: {e}"))?;
        push_record(&mut out, 'E', &payload);
    }
    Ok(out)
}

// ---------------------------------------------------------------------------
// Snapshot parsing
// ---------------------------------------------------------------------------

/// A decoded snapshot: everything recoverable plus what was skipped.
struct ParsedSnapshot {
    capacity: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    entries: Vec<VerdictEntry>,
    torn_entries: u64,
    corrupt_entries: u64,
    issues: Vec<String>,
}

/// Splits a byte string into complete (newline-terminated) lines plus
/// the torn trailing fragment, if any bytes follow the last newline.
fn split_lines(bytes: &[u8]) -> (Vec<&[u8]>, Option<&[u8]>) {
    let mut lines: Vec<&[u8]> = bytes.split(|&b| b == b'\n').collect();
    let tail = match lines.pop() {
        Some(last) if !last.is_empty() => Some(last),
        _ => None,
    };
    (lines, tail)
}

/// Parses `<tag> <16-hex> <payload>`, returning the stated checksum and
/// the raw payload bytes.
fn parse_tagged_line(line: &[u8], tag: u8) -> Result<(u64, &[u8]), String> {
    let rest = line
        .strip_prefix([tag, b' '].as_slice())
        .ok_or_else(|| format!("expected a '{}' record", char::from(tag)))?;
    let hex = rest.get(..16).ok_or("record shorter than its checksum")?;
    if rest.get(16) != Some(&b' ') {
        return Err("malformed checksum separator".to_owned());
    }
    let payload = rest.get(17..).ok_or("record missing its payload")?;
    let hex = std::str::from_utf8(hex).map_err(|_| "non-ASCII checksum".to_owned())?;
    let checksum =
        u64::from_str_radix(hex, 16).map_err(|_| "non-hexadecimal checksum".to_owned())?;
    Ok((checksum, payload))
}

/// Verifies and decodes one tagged record's payload as JSON.
fn decode_record<'a, T: serde::Deserialize<'a>>(line: &'a [u8], tag: u8) -> Result<T, String> {
    let (stated, payload) = parse_tagged_line(line, tag)?;
    let actual = fnv1a(payload);
    if stated != actual {
        return Err(format!(
            "checksum mismatch (stated {stated:016x}, actual {actual:016x})"
        ));
    }
    let text = std::str::from_utf8(payload).map_err(|_| "non-UTF-8 payload".to_owned())?;
    serde_json::from_str(text).map_err(|e| format!("undecodable payload: {e}"))
}

/// Parses a whole snapshot body. `Err` rejects the snapshot outright
/// (nothing before a valid header is trustworthy); after a valid
/// header, every failure degrades to a per-entry recovery counter.
fn parse_snapshot(bytes: &[u8]) -> Result<ParsedSnapshot, String> {
    let (lines, tail) = split_lines(bytes);
    let mut complete = lines.iter();
    let magic = format!("{MAGIC_PREFIX}{}", KIND.name());
    match complete.next() {
        None if tail.is_some() => return Err("truncated before the magic line".to_owned()),
        None => return Err("empty snapshot".to_owned()),
        Some(first) if *first != magic.as_bytes() => {
            return Err(format!(
                "bad magic (expected '{magic}', found '{}')",
                String::from_utf8_lossy(first)
            ))
        }
        Some(_) => {}
    }
    let Some(header_line) = complete.next() else {
        return Err("truncated before the header".to_owned());
    };
    let header: Vec<u64> = decode_record(header_line, b'H').map_err(|e| format!("header: {e}"))?;
    let &[capacity, hits, misses, evictions] = header.as_slice() else {
        return Err("header must hold exactly [capacity, hits, misses, evictions]".to_owned());
    };
    let capacity =
        usize::try_from(capacity).map_err(|_| "capacity exceeds this platform".to_owned())?;

    let mut parsed = ParsedSnapshot {
        capacity,
        hits,
        misses,
        evictions,
        entries: Vec::new(),
        torn_entries: 0,
        corrupt_entries: 0,
        issues: Vec::new(),
    };
    for (index, line) in complete.enumerate() {
        match decode_record(line, b'E') {
            Ok(entry) => parsed.entries.push(entry),
            Err(why) => {
                parsed.corrupt_entries += 1;
                parsed.issues.push(format!("entry {index}: {why}"));
            }
        }
    }
    if tail.is_some() {
        parsed.torn_entries += 1;
        parsed
            .issues
            .push("torn trailing record (no final newline)".to_owned());
    }
    Ok(parsed)
}

/// Reads and parses the snapshot in `dir`: `None` when there is no
/// snapshot file, `Err` when the whole file must be rejected.
fn read_snapshot(dir: &Path, io: &dyn PersistIo) -> Option<Result<ParsedSnapshot, String>> {
    match io.read(&snapshot_path(dir, KIND)) {
        Ok(Some(bytes)) => Some(parse_snapshot(&bytes)),
        Ok(None) => None,
        Err(e) => Some(Err(format!("unreadable: {e}"))),
    }
}

// ---------------------------------------------------------------------------
// Save / load over an ArtifactStore
// ---------------------------------------------------------------------------

/// Snapshots the verdict cache of `store` into `dir` with the durable
/// write protocol. On an I/O failure the previous snapshot stays valid.
pub(crate) fn save_store(
    store: &ArtifactStore,
    dir: &Path,
    io: &dyn PersistIo,
) -> Result<SaveReport, PersistError> {
    io.create_dir_all(dir)
        .map_err(|e| PersistError::new("create-dir", dir, e))?;
    let (capacity, stats, entries) = {
        let guard = store.verdict.lock();
        (guard.capacity(), guard.stats(), guard.entries_in_order())
    };
    let target = snapshot_path(dir, KIND);
    let body = render_snapshot(capacity, stats, &entries)
        .map_err(|e| PersistError::new("encode", &target, e))?;
    let tmp = tmp_path(dir, KIND);
    io.write_tmp(&tmp, body.as_bytes())
        .map_err(|e| PersistError::new("write-tmp", &tmp, e))?;
    io.sync_tmp(&tmp)
        .map_err(|e| PersistError::new("sync-tmp", &tmp, e))?;
    io.rename(&tmp, &target)
        .map_err(|e| PersistError::new("rename", &target, e))?;
    io.sync_dir(dir)
        .map_err(|e| PersistError::new("sync-dir", dir, e))?;
    Ok(SaveReport {
        files_written: 1,
        entries_written: entries.len() as u64,
    })
}

/// Restores the verdict cache of `store` from the snapshot in `dir`.
/// Never fails: every corruption mode degrades to recovery counters.
pub(crate) fn load_store(store: &ArtifactStore, dir: &Path, io: &dyn PersistIo) -> LoadReport {
    let cache = &store.verdict;
    let Some(parsed) = read_snapshot(dir, io) else {
        return LoadReport {
            missing: 1,
            ..LoadReport::default()
        };
    };
    let Ok(parsed) = parsed else {
        cache.lock().stats_mut().rejected_snapshots += 1;
        return LoadReport {
            rejected_snapshots: 1,
            ..LoadReport::default()
        };
    };
    let mut guard = cache.lock();
    guard.set_capacity(parsed.capacity);
    {
        let stats = guard.stats_mut();
        // The snapshot header predates the `lookups` counter, so the
        // merged lookups are reconstructed from the invariant
        // `lookups == hits + misses` to keep coherence observable across
        // warm starts.
        stats.lookups += parsed.hits + parsed.misses;
        stats.hits += parsed.hits;
        stats.misses += parsed.misses;
        stats.evictions += parsed.evictions;
        stats.torn_entries += parsed.torn_entries;
        stats.corrupt_entries += parsed.corrupt_entries;
    }
    let report = LoadReport {
        restored: parsed.entries.len() as u64,
        torn_entries: parsed.torn_entries,
        corrupt_entries: parsed.corrupt_entries,
        ..LoadReport::default()
    };
    for (k, v) in parsed.entries {
        guard.restore_entry(k, v);
    }
    report
}

// ---------------------------------------------------------------------------
// Public configuration + entry points
// ---------------------------------------------------------------------------

/// Where (and whether) to persist the verdict cache. Disabled by
/// default; enabled by an explicit directory (`--cache-dir`) or the
/// `CHROMATA_CACHE_DIR` environment variable.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct CacheDirConfig {
    dir: Option<PathBuf>,
}

impl CacheDirConfig {
    /// Persistence off (the default).
    #[must_use]
    pub fn disabled() -> Self {
        CacheDirConfig { dir: None }
    }

    /// Persistence on, rooted at `dir`.
    #[must_use]
    pub fn at(dir: impl Into<PathBuf>) -> Self {
        CacheDirConfig {
            dir: Some(dir.into()),
        }
    }

    /// Reads `CHROMATA_CACHE_DIR` (via `govern`, rule D2); unset or
    /// blank means disabled.
    #[must_use]
    pub fn from_env() -> Self {
        CacheDirConfig {
            dir: govern::env_string(CACHE_DIR_ENV).map(PathBuf::from),
        }
    }

    /// CLI-style resolution: an explicit directory wins over the
    /// environment variable; neither means disabled.
    #[must_use]
    pub fn resolve(explicit: Option<PathBuf>) -> Self {
        match explicit {
            Some(dir) => CacheDirConfig::at(dir),
            None => CacheDirConfig::from_env(),
        }
    }

    /// The configured cache directory, if persistence is enabled.
    #[must_use]
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Whether persistence is enabled.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.dir.is_some()
    }
}

// ---------------------------------------------------------------------------
// Offline audit + maintenance
// ---------------------------------------------------------------------------

/// Integrity status of the verdict snapshot file.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum SnapshotStatus {
    /// No snapshot file exists.
    Missing,
    /// The snapshot decoded (possibly with skipped entries — check the
    /// recovery counters).
    Valid,
    /// The whole snapshot was rejected (bad magic/version/header/read).
    Rejected,
}

impl SnapshotStatus {
    /// Stable lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            SnapshotStatus::Missing => "missing",
            SnapshotStatus::Valid => "valid",
            SnapshotStatus::Rejected => "rejected",
        }
    }
}

impl fmt::Display for SnapshotStatus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The offline integrity report for the verdict snapshot, produced by
/// [`audit_cache_dir`] without touching any engine.
#[derive(Clone, Debug)]
pub struct SnapshotAudit {
    /// The artifact kind this snapshot caches.
    pub kind: ArtifactKind,
    /// Whole-file status.
    pub status: SnapshotStatus,
    /// Fully decoded entries.
    pub entries: u64,
    /// The capacity recorded in the header.
    pub capacity: usize,
    /// Cumulative hits recorded in the header.
    pub hits: u64,
    /// Cumulative misses recorded in the header.
    pub misses: u64,
    /// Cumulative evictions recorded in the header.
    pub evictions: u64,
    /// Torn trailing records detected.
    pub torn_entries: u64,
    /// Corrupt (checksum/payload) records detected.
    pub corrupt_entries: u64,
    /// Human-readable descriptions of every problem found.
    pub issues: Vec<String>,
}

impl SnapshotAudit {
    /// Whether this snapshot is fully intact (missing counts as clean —
    /// a fresh directory is not corrupt).
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.status != SnapshotStatus::Rejected
            && self.torn_entries == 0
            && self.corrupt_entries == 0
    }
}

fn empty_audit(status: SnapshotStatus) -> SnapshotAudit {
    SnapshotAudit {
        kind: KIND,
        status,
        entries: 0,
        capacity: 0,
        hits: 0,
        misses: 0,
        evictions: 0,
        torn_entries: 0,
        corrupt_entries: 0,
        issues: Vec::new(),
    }
}

/// Audits the verdict snapshot in `dir` offline — full typed decode and
/// checksum verification — without loading anything into an engine.
#[must_use]
pub fn audit_cache_dir(dir: &Path) -> SnapshotAudit {
    match read_snapshot(dir, &RealIo) {
        None => empty_audit(SnapshotStatus::Missing),
        Some(Err(why)) => {
            let mut audit = empty_audit(SnapshotStatus::Rejected);
            audit.issues.push(why);
            audit
        }
        Some(Ok(parsed)) => SnapshotAudit {
            kind: KIND,
            status: SnapshotStatus::Valid,
            entries: parsed.entries.len() as u64,
            capacity: parsed.capacity,
            hits: parsed.hits,
            misses: parsed.misses,
            evictions: parsed.evictions,
            torn_entries: parsed.torn_entries,
            corrupt_entries: parsed.corrupt_entries,
            issues: parsed.issues,
        },
    }
}

/// Removes every snapshot (and stray temp file) in `dir`, returning how
/// many files were deleted. The directory itself is kept. Snapshots of
/// every artifact kind are removed, including the five a six-file
/// directory from before verdict-only persistence still holds.
pub fn clear_cache_dir(dir: &Path) -> Result<usize, PersistError> {
    let io = RealIo;
    let mut removed = 0;
    for &kind in &ALL_KINDS {
        for path in [snapshot_path(dir, kind), tmp_path(dir, kind)] {
            match io.read(&path) {
                Ok(Some(_)) => {
                    io.remove(&path)
                        .map_err(|e| PersistError::new("remove", &path, e))?;
                    removed += 1;
                }
                Ok(None) => {}
                Err(e) => return Err(PersistError::new("remove", &path, e)),
            }
        }
    }
    Ok(removed)
}

#[cfg(test)]
mod tests {
    use std::cell::Cell;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    use proptest::prelude::*;

    use chromata_task::library::{constant_task, identity_task, two_set_agreement};

    use super::super::StageTrace;
    use super::*;
    use crate::pipeline::Verdict;

    // -- fixtures ----------------------------------------------------------

    /// A unique, pre-cleaned scratch directory per call.
    fn test_dir(tag: &str) -> PathBuf {
        static SEQ: AtomicU64 = AtomicU64::new(0);
        let n = SEQ.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("chromata-persist-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn record() -> DecisionRecord {
        DecisionRecord {
            verdict: Verdict::Solvable {
                certificate: "test certificate".to_owned(),
            },
            decided_by: "explore",
            stages: vec![StageTrace {
                stage: "split",
                detail: "2 split step(s)".to_owned(),
                work: 2,
            }],
        }
    }

    /// A private store with one verdict record per task.
    fn seeded_store_with(capacity: usize, tasks: &[chromata_task::Task]) -> ArtifactStore {
        let store = ArtifactStore::with_capacity(capacity);
        for task in tasks {
            store.verdict.lock().insert((task.clone(), 5), record());
        }
        store
    }

    fn seeded_store(capacity: usize) -> ArtifactStore {
        seeded_store_with(capacity, &[two_set_agreement(), constant_task(2)])
    }

    fn snapshot_bytes(dir: &Path) -> Vec<u8> {
        std::fs::read(snapshot_path(dir, KIND)).expect("snapshot exists")
    }

    // -- round trips -------------------------------------------------------

    #[test]
    fn roundtrip_is_byte_identical_and_restores_capacity() {
        let store = seeded_store(8);
        let dir = test_dir("roundtrip");
        let report = save_store(&store, &dir, &RealIo).expect("save");
        assert_eq!(report.files_written, 1);
        assert_eq!(report.entries_written, 2);
        let written: Vec<_> = std::fs::read_dir(&dir)
            .expect("list")
            .map(|e| e.expect("entry").file_name())
            .collect();
        assert_eq!(written, ["verdict.snap"], "only the verdict is persisted");

        // Load into a store with a *different* capacity: the snapshot's
        // capacity must win, and a re-save must be byte-identical.
        let fresh = ArtifactStore::with_capacity(99);
        let load = load_store(&fresh, &dir, &RealIo);
        assert_eq!(load.restored, 2);
        assert_eq!(load.recovery_events(), 0);
        assert_eq!(load.missing, 0);
        assert_eq!(fresh.verdict.lock().capacity(), 8);
        assert_eq!(fresh.split.lock().capacity(), 99, "other caches untouched");

        let dir2 = test_dir("roundtrip-resave");
        save_store(&fresh, &dir2, &RealIo).expect("re-save");
        assert_eq!(snapshot_bytes(&dir), snapshot_bytes(&dir2));
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&dir2);
    }

    #[test]
    fn stats_merge_additively_and_restored_is_counted() {
        let store = seeded_store(8);
        // Bump some counters: 2 hits, 1 miss on the verdict cache.
        let probe = two_set_agreement();
        store.verdict.lock().get(&(probe.clone(), 5));
        store.verdict.lock().get(&(probe.clone(), 5));
        store.verdict.lock().get(&(probe, 999));
        let dir = test_dir("stats");
        save_store(&store, &dir, &RealIo).expect("save");

        let fresh = ArtifactStore::with_capacity(4);
        // Pre-existing counters must survive the merge.
        fresh.verdict.lock().stats_mut().hits = 10;
        load_store(&fresh, &dir, &RealIo);
        let stats = fresh.verdict.lock().stats();
        assert_eq!(stats.hits, 12);
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.restored, 2);
        assert_eq!(stats.recovery_events(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn restored_order_drives_future_evictions() {
        let tasks = [
            two_set_agreement(),
            constant_task(2),
            identity_task(2),
            constant_task(3),
        ];
        let store = ArtifactStore::with_capacity(4);
        for t in &tasks {
            store.verdict.lock().insert((t.clone(), 1), record());
        }
        let dir = test_dir("order");
        save_store(&store, &dir, &RealIo).expect("save");

        let fresh = ArtifactStore::with_capacity(4);
        load_store(&fresh, &dir, &RealIo);
        {
            let guard = fresh.verdict.lock();
            let keys: Vec<_> = guard
                .entries_in_order()
                .into_iter()
                .map(|(k, _)| k)
                .collect();
            let expected: Vec<_> = tasks.iter().map(|t| (t.clone(), 1usize)).collect();
            assert_eq!(keys, expected, "snapshot order must be insertion order");
        }
        // One more insert evicts the *oldest restored* entry.
        fresh.verdict.lock().insert((identity_task(3), 1), record());
        let guard = fresh.verdict.lock();
        assert_eq!(guard.len(), 4);
        let keys: Vec<_> = guard
            .entries_in_order()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert!(!keys.contains(&(two_set_agreement(), 1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serialization_is_independent_of_construction_order() {
        // Build the same verdict keys in opposite orders: the snapshot
        // bytes must not depend on global interning history.
        let a1 = two_set_agreement();
        let b1 = constant_task(2);
        let b2 = constant_task(2);
        let a2 = two_set_agreement();
        let first = seeded_store_with(4, &[a1, b1]);
        let second = seeded_store_with(4, &[a2, b2]);
        let (d1, d2) = (test_dir("order-a"), test_dir("order-b"));
        save_store(&first, &d1, &RealIo).expect("save");
        save_store(&second, &d2, &RealIo).expect("save");
        assert_eq!(snapshot_bytes(&d1), snapshot_bytes(&d2));
        let _ = std::fs::remove_dir_all(&d1);
        let _ = std::fs::remove_dir_all(&d2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// Snapshot → reload preserves entries, order and capacity for
        /// any insertion sequence, under any pre-existing capacity.
        #[test]
        fn roundtrip_identity_under_any_order(
            capacity in 1usize..6,
            order in proptest::collection::vec(0usize..4, 1..10),
            reload_capacity in 1usize..9,
        ) {
            let pool = [
                (two_set_agreement(), 3usize),
                (two_set_agreement(), 7usize),
                (constant_task(2), 3usize),
                (identity_task(2), 3usize),
            ];
            let store = ArtifactStore::with_capacity(capacity);
            for &i in &order {
                let key = pool[i].clone();
                store.verdict.lock().insert(key, record());
            }
            let dir = test_dir("prop");
            save_store(&store, &dir, &RealIo).expect("save");
            let fresh = ArtifactStore::with_capacity(reload_capacity);
            let report = load_store(&fresh, &dir, &RealIo);
            prop_assert_eq!(report.recovery_events(), 0);

            let original = store.verdict.lock().entries_in_order();
            let restored = fresh.verdict.lock().entries_in_order();
            prop_assert_eq!(report.restored as usize, original.len());
            prop_assert_eq!(fresh.verdict.lock().capacity(), capacity);
            prop_assert_eq!(original.len(), restored.len());
            for ((k1, v1), (k2, v2)) in original.iter().zip(restored.iter()) {
                prop_assert_eq!(k1, k2);
                prop_assert_eq!(
                    serde_json::to_string(v1).expect("ser"),
                    serde_json::to_string(v2).expect("ser")
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    // -- torn writes -------------------------------------------------------

    #[test]
    fn torn_write_matrix_every_truncation_point() {
        let store = ArtifactStore::with_capacity(4);
        store.verdict.lock().insert((constant_task(2), 1), record());
        store.verdict.lock().insert((identity_task(2), 1), record());
        let dir = test_dir("torn-src");
        save_store(&store, &dir, &RealIo).expect("save");
        let full = snapshot_bytes(&dir);
        let _ = std::fs::remove_dir_all(&dir);

        let work = test_dir("torn");
        std::fs::create_dir_all(&work).expect("mkdir");
        let target = snapshot_path(&work, KIND);
        for cut in 0..=full.len() {
            let prefix = &full[..cut];
            std::fs::write(&target, prefix).expect("write truncated");
            let fresh = ArtifactStore::with_capacity(4);
            let report = load_store(&fresh, &work, &RealIo);
            assert_eq!(report.missing, 0, "verdict.snap exists (cut {cut})");

            let newlines = prefix.iter().filter(|&&b| b == b'\n').count();
            let torn_tail = !prefix.is_empty() && *prefix.last().expect("nonempty") != b'\n';
            if newlines < 2 {
                // Magic or header incomplete: the whole snapshot goes.
                assert_eq!(report.rejected_snapshots, 1, "cut {cut}");
                assert_eq!(report.restored, 0, "cut {cut}");
                assert_eq!(report.torn_entries, 0, "cut {cut}");
            } else {
                let complete_entries = (newlines - 2) as u64;
                assert_eq!(report.rejected_snapshots, 0, "cut {cut}");
                assert_eq!(report.restored, complete_entries, "cut {cut}");
                assert_eq!(report.torn_entries, u64::from(torn_tail), "cut {cut}");
                assert_eq!(report.corrupt_entries, 0, "cut {cut}");
                assert_eq!(fresh.verdict.lock().capacity(), 4, "cut {cut}");
                // Restored entries must be checksum-valid originals.
                for (k, _) in fresh.verdict.lock().entries_in_order() {
                    assert!(k == (constant_task(2), 1) || k == (identity_task(2), 1));
                }
            }
        }
        let _ = std::fs::remove_dir_all(&work);
    }

    // -- injected I/O faults ----------------------------------------------

    #[derive(Clone, Copy, Debug)]
    enum IoFaultMode {
        /// The targeted operation fails with this `ErrorKind`.
        Error(io::ErrorKind),
        /// The process model dies at the targeted operation: it fails,
        /// writes tear halfway, and every later operation fails too.
        Kill,
        /// A write persists a 7-bytes-short prefix, then errors.
        ShortWrite,
    }

    /// Counting fault injector over the real filesystem, in the style
    /// of `runtime/fault.rs`: operation `trigger_op` misbehaves.
    struct FaultIo {
        inner: RealIo,
        op: Cell<u64>,
        killed: Cell<bool>,
        trigger_op: u64,
        mode: IoFaultMode,
    }

    impl FaultIo {
        fn new(trigger_op: u64, mode: IoFaultMode) -> Self {
            FaultIo {
                inner: RealIo,
                op: Cell::new(0),
                killed: Cell::new(false),
                trigger_op,
                mode,
            }
        }

        /// Counts this operation; `Ok(true)` means "fault it now".
        fn gate(&self) -> io::Result<bool> {
            if self.killed.get() {
                return Err(io::Error::new(
                    io::ErrorKind::Interrupted,
                    "process is dead",
                ));
            }
            let n = self.op.get();
            self.op.set(n + 1);
            Ok(n == self.trigger_op)
        }

        fn fault(&self) -> io::Error {
            match self.mode {
                IoFaultMode::Error(kind) => io::Error::new(kind, "injected fault"),
                IoFaultMode::Kill => {
                    self.killed.set(true);
                    io::Error::new(io::ErrorKind::Interrupted, "killed")
                }
                IoFaultMode::ShortWrite => io::Error::new(io::ErrorKind::WriteZero, "short write"),
            }
        }
    }

    impl PersistIo for FaultIo {
        fn create_dir_all(&self, dir: &Path) -> io::Result<()> {
            if self.gate()? {
                return Err(self.fault());
            }
            self.inner.create_dir_all(dir)
        }

        fn write_tmp(&self, path: &Path, bytes: &[u8]) -> io::Result<()> {
            if self.gate()? {
                // Torn writes are the interesting failure here: persist
                // a prefix before erroring, like a real crash would.
                let cut = match self.mode {
                    IoFaultMode::Kill => bytes.len() / 2,
                    IoFaultMode::ShortWrite => bytes.len().saturating_sub(7),
                    IoFaultMode::Error(_) => 0,
                };
                if cut > 0 {
                    let _ = self.inner.write_tmp(path, &bytes[..cut]);
                }
                return Err(self.fault());
            }
            self.inner.write_tmp(path, bytes)
        }

        fn sync_tmp(&self, path: &Path) -> io::Result<()> {
            if self.gate()? {
                return Err(self.fault());
            }
            self.inner.sync_tmp(path)
        }

        fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
            if self.gate()? {
                return Err(self.fault());
            }
            self.inner.rename(from, to)
        }

        fn sync_dir(&self, dir: &Path) -> io::Result<()> {
            if self.gate()? {
                return Err(self.fault());
            }
            self.inner.sync_dir(dir)
        }

        fn read(&self, path: &Path) -> io::Result<Option<Vec<u8>>> {
            if self.gate()? {
                return Err(self.fault());
            }
            self.inner.read(path)
        }

        fn remove(&self, path: &Path) -> io::Result<()> {
            if self.gate()? {
                return Err(self.fault());
            }
            self.inner.remove(path)
        }
    }

    /// Operations a full save performs: create-dir, write-tmp, sync-tmp,
    /// rename, sync-dir.
    const SAVE_OPS: u64 = 5;

    #[test]
    fn every_errorkind_at_every_killpoint_leaves_store_consistent() {
        let error_kinds = [
            io::ErrorKind::NotFound,
            io::ErrorKind::PermissionDenied,
            io::ErrorKind::ConnectionRefused,
            io::ErrorKind::ConnectionReset,
            io::ErrorKind::ConnectionAborted,
            io::ErrorKind::NotConnected,
            io::ErrorKind::AddrInUse,
            io::ErrorKind::AddrNotAvailable,
            io::ErrorKind::BrokenPipe,
            io::ErrorKind::AlreadyExists,
            io::ErrorKind::WouldBlock,
            io::ErrorKind::InvalidInput,
            io::ErrorKind::InvalidData,
            io::ErrorKind::TimedOut,
            io::ErrorKind::WriteZero,
            io::ErrorKind::Interrupted,
            io::ErrorKind::Unsupported,
            io::ErrorKind::UnexpectedEof,
            io::ErrorKind::OutOfMemory,
            io::ErrorKind::Other,
        ];
        let mut modes: Vec<IoFaultMode> = error_kinds.into_iter().map(IoFaultMode::Error).collect();
        modes.push(IoFaultMode::Kill);
        modes.push(IoFaultMode::ShortWrite);

        // Old state: one task. New state: old plus another task.
        let old_store = seeded_store_with(8, &[two_set_agreement()]);
        let new_store = seeded_store_with(8, &[two_set_agreement(), identity_task(2)]);
        let old_dir = test_dir("fault-old");
        let new_dir = test_dir("fault-new");
        save_store(&old_store, &old_dir, &RealIo).expect("baseline old");
        save_store(&new_store, &new_dir, &RealIo).expect("baseline new");
        let old_bytes = snapshot_bytes(&old_dir);
        let new_bytes = snapshot_bytes(&new_dir);

        let work = test_dir("fault-work");
        for mode in modes {
            for trigger in 0..SAVE_OPS {
                // Reset to the old, fully valid on-disk state.
                let _ = std::fs::remove_dir_all(&work);
                save_store(&old_store, &work, &RealIo).expect("reset");

                let io = FaultIo::new(trigger, mode);
                let result = save_store(&new_store, &work, &io);
                assert!(result.is_err(), "op {trigger} under {mode:?} must fail");

                // Crash-consistency: the file is wholly the old or wholly
                // the new snapshot — never a mix, never torn.
                let on_disk = snapshot_bytes(&work);
                assert!(
                    on_disk == old_bytes || on_disk == new_bytes,
                    "verdict.snap is a hybrid after faulting op {trigger} ({mode:?})"
                );
                // And a paranoid load sees zero corruption.
                let fresh = ArtifactStore::with_capacity(8);
                let report = load_store(&fresh, &work, &RealIo);
                assert_eq!(
                    report.recovery_events(),
                    0,
                    "recovery needed after op {trigger} ({mode:?})"
                );

                // A healthy retry converges to the new state exactly.
                save_store(&new_store, &work, &RealIo).expect("retry");
                assert_eq!(
                    snapshot_bytes(&work),
                    new_bytes,
                    "retry after {trigger} ({mode:?})"
                );
            }
        }
        for d in [&old_dir, &new_dir, &work] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn enospc_mid_snapshot_keeps_the_old_snapshot_at_every_op() {
        // Disk-full at every possible point of the save protocol: the
        // previous snapshot must stay wholly intact (old or complete
        // new, never torn), a paranoid load must be clean, and the next
        // cadence with space back must converge exactly.
        let old_store = seeded_store_with(8, &[two_set_agreement()]);
        let new_store = seeded_store_with(8, &[two_set_agreement(), identity_task(2)]);
        let old_dir = test_dir("enospc-old");
        let new_dir = test_dir("enospc-new");
        save_store(&old_store, &old_dir, &RealIo).expect("baseline old");
        save_store(&new_store, &new_dir, &RealIo).expect("baseline new");
        let old_bytes = snapshot_bytes(&old_dir);
        let new_bytes = snapshot_bytes(&new_dir);

        let work = test_dir("enospc-work");
        for trigger in 0..SAVE_OPS {
            let _ = std::fs::remove_dir_all(&work);
            save_store(&old_store, &work, &RealIo).expect("reset");

            let io = FaultIo::new(trigger, IoFaultMode::Error(io::ErrorKind::StorageFull));
            save_store(&new_store, &work, &io).expect_err("disk full must fail the save");

            let on_disk = snapshot_bytes(&work);
            assert!(
                on_disk == old_bytes || on_disk == new_bytes,
                "verdict.snap torn after ENOSPC at op {trigger}"
            );
            let fresh = ArtifactStore::with_capacity(8);
            let report = load_store(&fresh, &work, &RealIo);
            assert_eq!(report.recovery_events(), 0, "ENOSPC at op {trigger}");

            // Space is back: the next cadence succeeds and converges.
            save_store(&new_store, &work, &RealIo).expect("retry once space is back");
            assert_eq!(snapshot_bytes(&work), new_bytes, "retry after op {trigger}");
        }
        for d in [&old_dir, &new_dir, &work] {
            let _ = std::fs::remove_dir_all(d);
        }
    }

    #[test]
    fn enospc_through_the_chaos_seam_degrades_and_heals_persist_now() {
        use super::super::chaos::{PersistChaos, PersistFault};

        let dir = test_dir("enospc-seam");
        let chaos = PersistChaos::new();
        let engine = crate::Engine::with_chaos(Arc::clone(&chaos));

        // Baseline cadence with the seam wired in but disarmed.
        engine.persist(&dir).expect("clean save");
        assert_eq!(engine.persist_failures(), 0);
        assert!(
            !engine.read_through(),
            "clean save must not be read-through"
        );

        // Disk full mid-snapshot: the cadence fails, is counted, and
        // flips the engine to read-through — but never wedges.
        chaos.arm(PersistFault::Enospc);
        engine
            .persist(&dir)
            .expect_err("armed ENOSPC must fail the save");
        assert_eq!(chaos.fired(), 1, "the armed fault fired");
        assert_eq!(engine.persist_failures(), 1, "failure is counted");
        assert!(engine.read_through(), "failed save flips read-through");

        // The on-disk state is still a clean, loadable snapshot.
        let audit = audit_cache_dir(&dir);
        assert!(audit.is_clean(), "unclean after ENOSPC: {audit:?}");

        // Fault cleared (one-shot): the next cadence succeeds and
        // clears the flag.
        engine
            .persist(&dir)
            .expect("save heals once the fault clears");
        assert!(!engine.read_through(), "healed save clears read-through");
        assert_eq!(engine.persist_failures(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_failure_rejects_that_snapshot_only() {
        let store = seeded_store_with(4, &[constant_task(2)]);
        let dir = test_dir("read-fail");
        save_store(&store, &dir, &RealIo).expect("save");

        // Op 0 is the one read (the verdict snapshot).
        let io = FaultIo::new(0, IoFaultMode::Error(io::ErrorKind::PermissionDenied));
        let fresh = ArtifactStore::with_capacity(4);
        let report = load_store(&fresh, &dir, &io);
        assert_eq!(report.rejected_snapshots, 1);
        assert_eq!(report.restored, 0);
        assert_eq!(fresh.verdict.lock().stats().rejected_snapshots, 1);
        assert!(fresh.verdict.lock().is_empty());
        // The file itself is untouched: a healthy read restores it.
        let report = load_store(&fresh, &dir, &RealIo);
        assert_eq!(report.restored, 1);
        assert_eq!(report.recovery_events(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -- corruption classification ----------------------------------------

    #[test]
    fn flipped_payload_byte_is_corrupt_rest_restored() {
        let store = ArtifactStore::with_capacity(4);
        store.verdict.lock().insert((constant_task(2), 1), record());
        store.verdict.lock().insert((identity_task(2), 1), record());
        let dir = test_dir("flip");
        save_store(&store, &dir, &RealIo).expect("save");

        let path = snapshot_path(&dir, KIND);
        let mut bytes = std::fs::read(&path).expect("read");
        // Flip one payload byte of the last entry record: 'E', space,
        // 16 hex digits, space — the payload starts 19 bytes in.
        let last_e = bytes
            .windows(3)
            .rposition(|w| w == b"\nE ")
            .expect("an entry record");
        bytes[last_e + 20] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrite");

        let fresh = ArtifactStore::with_capacity(4);
        let report = load_store(&fresh, &dir, &RealIo);
        assert_eq!(report.corrupt_entries, 1);
        assert_eq!(report.restored, 1);
        assert_eq!(report.rejected_snapshots, 0);
        assert_eq!(report.torn_entries, 0);
        let stats = fresh.verdict.lock().stats();
        assert_eq!(stats.corrupt_entries, 1);
        assert_eq!(stats.restored, 1);
        let keys: Vec<_> = fresh
            .verdict
            .lock()
            .entries_in_order()
            .into_iter()
            .map(|(k, _)| k)
            .collect();
        assert_eq!(keys, vec![(constant_task(2), 1)]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bad_magic_rejects_the_whole_snapshot() {
        let store = seeded_store_with(4, &[constant_task(2)]);
        let dir = test_dir("magic");
        save_store(&store, &dir, &RealIo).expect("save");
        let path = snapshot_path(&dir, KIND);
        let mut bytes = std::fs::read(&path).expect("read");
        bytes[0] ^= 0x20;
        std::fs::write(&path, &bytes).expect("rewrite");

        let fresh = ArtifactStore::with_capacity(4);
        let report = load_store(&fresh, &dir, &RealIo);
        assert_eq!(report.rejected_snapshots, 1);
        assert_eq!(report.restored, 0);
        assert!(fresh.verdict.lock().is_empty());
        assert_eq!(fresh.verdict.lock().stats().rejected_snapshots, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn old_version_snapshot_degrades_to_recompute() {
        // A v1 snapshot must be rejected wholesale, not reinterpreted:
        // the cost is a cold recompute, never a wrong verdict.
        let store = seeded_store_with(4, &[constant_task(2)]);
        let dir = test_dir("old-version");
        save_store(&store, &dir, &RealIo).expect("save");
        let path = snapshot_path(&dir, KIND);
        let text = std::fs::read_to_string(&path).expect("read");
        let downgraded = text.replacen("chromata-snap v2 ", "chromata-snap v1 ", 1);
        assert_ne!(text, downgraded, "version token must be present");
        std::fs::write(&path, downgraded).expect("rewrite");

        let fresh = ArtifactStore::with_capacity(4);
        let report = load_store(&fresh, &dir, &RealIo);
        assert_eq!(report.rejected_snapshots, 1);
        assert_eq!(report.restored, 0);
        assert!(fresh.verdict.lock().is_empty());
        // The degraded store re-saves as v2 and round-trips cleanly.
        save_store(&store, &dir, &RealIo).expect("re-save");
        let again = ArtifactStore::with_capacity(4);
        let report = load_store(&again, &dir, &RealIo);
        assert_eq!(report.rejected_snapshots, 0);
        assert_eq!(report.restored, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mismatched_kind_magic_is_rejected() {
        // A snapshot of another kind copied over the verdict snapshot
        // must not load: the magic line binds the file to its kind.
        let store = seeded_store_with(4, &[constant_task(2)]);
        let dir = test_dir("cross-kind");
        save_store(&store, &dir, &RealIo).expect("save");
        let path = snapshot_path(&dir, KIND);
        let text = std::fs::read_to_string(&path).expect("read");
        let split = text.replacen("chromata-snap v2 verdict", "chromata-snap v2 split", 1);
        assert_ne!(text, split, "kind token must be present");
        std::fs::write(&path, split).expect("rewrite");
        let fresh = ArtifactStore::with_capacity(4);
        let report = load_store(&fresh, &dir, &RealIo);
        assert_eq!(report.rejected_snapshots, 1);
        assert!(fresh.verdict.lock().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -- audit + clear -----------------------------------------------------

    #[test]
    fn audit_classifies_valid_corrupt_and_missing() {
        let store = seeded_store_with(4, &[constant_task(2)]);
        let dir = test_dir("audit");
        save_store(&store, &dir, &RealIo).expect("save");

        let audit = audit_cache_dir(&dir);
        assert_eq!(audit.kind, KIND);
        assert_eq!(audit.status, SnapshotStatus::Valid);
        assert!(audit.is_clean());
        assert_eq!(audit.entries, 1);
        assert_eq!(audit.capacity, 4);

        // Flip a payload byte: the audit must flag it.
        let path = snapshot_path(&dir, KIND);
        let mut bytes = std::fs::read(&path).expect("read");
        let last_e = bytes
            .windows(3)
            .rposition(|w| w == b"\nE ")
            .expect("an entry record");
        bytes[last_e + 20] ^= 0x01;
        std::fs::write(&path, &bytes).expect("rewrite");
        let audit = audit_cache_dir(&dir);
        assert!(!audit.is_clean());
        assert_eq!(audit.corrupt_entries, 1);
        assert!(!audit.issues.is_empty());

        // Clearing removes the snapshot; the audit then reads missing.
        let removed = clear_cache_dir(&dir).expect("clear");
        assert_eq!(removed, 1);
        let audit = audit_cache_dir(&dir);
        assert_eq!(audit.status, SnapshotStatus::Missing);
        assert!(audit.is_clean());
        let _ = std::fs::remove_dir_all(&dir);
    }

    // -- configuration ----------------------------------------------------

    #[test]
    fn cache_dir_config_resolution() {
        assert!(!CacheDirConfig::disabled().is_enabled());
        assert!(!CacheDirConfig::default().is_enabled());
        let explicit = CacheDirConfig::resolve(Some(PathBuf::from("/tmp/explicit")));
        assert_eq!(explicit.dir(), Some(Path::new("/tmp/explicit")));

        std::env::set_var(CACHE_DIR_ENV, "/tmp/from-env");
        assert_eq!(
            CacheDirConfig::from_env().dir(),
            Some(Path::new("/tmp/from-env"))
        );
        // Explicit still wins over the environment.
        let winner = CacheDirConfig::resolve(Some(PathBuf::from("/tmp/explicit")));
        assert_eq!(winner.dir(), Some(Path::new("/tmp/explicit")));
        let fallback = CacheDirConfig::resolve(None);
        assert_eq!(fallback.dir(), Some(Path::new("/tmp/from-env")));
        std::env::remove_var(CACHE_DIR_ENV);
        assert!(!CacheDirConfig::from_env().is_enabled());
    }

    // -- parser hardening --------------------------------------------------

    #[test]
    fn parse_tagged_line_rejects_malformed_records() {
        assert!(parse_tagged_line(b"", b'E').is_err());
        assert!(parse_tagged_line(b"X 0000000000000000 []", b'E').is_err());
        assert!(parse_tagged_line(b"E 00", b'E').is_err());
        assert!(parse_tagged_line(b"E 000000000000000g []", b'E').is_err());
        assert!(parse_tagged_line(b"E 0000000000000000[]", b'E').is_err());
        let ok = parse_tagged_line(b"E 00000000000000ff []", b'E').expect("well-formed");
        assert_eq!(ok.0, 0xff);
        assert_eq!(ok.1, b"[]");
    }

    #[test]
    fn split_lines_classifies_torn_tails() {
        assert_eq!(split_lines(b""), (vec![], None));
        assert_eq!(split_lines(b"a\n"), (vec![b"a".as_slice()], None));
        assert_eq!(
            split_lines(b"a\nb"),
            (vec![b"a".as_slice()], Some(b"b".as_slice()))
        );
        assert_eq!(
            split_lines(b"a\nb\n"),
            (vec![b"a".as_slice(), b"b".as_slice()], None)
        );
    }
}
