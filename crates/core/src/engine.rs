//! The verdict engine as a value.
//!
//! Theorem 5.1 makes a verdict a pure function of the task, so
//! everything an [`Engine`] keeps between calls is memoization: the
//! verdict cache, the I/O seam its snapshots go through, and the health
//! of its last snapshot. Two engines share none of it. Tests, the chaos
//! campaign and the CLI commands each build their own;
//! [`default_engine`] is the one process-wide instance, behind
//! the `analyze`/`analyze_batch`/`clear_stage_caches`/`stage_cache_stats`/
//! `load_cache_dir`/`persist_now` conveniences and `Server::start`.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use chromata_task::Task;
use chromata_topology::{par_map, Budget, CancelToken};

use crate::pipeline::{Analysis, PipelineOptions};
use crate::stages::cache::{ArtifactKind, DecisionCacheStats, CACHE_CAPACITY};
use crate::stages::chaos::PersistChaos;
use crate::stages::persist::{
    self, CacheDirConfig, LoadReport, PersistError, PersistIo, RealIo, SaveReport,
};
use crate::stages::{run_engine, VerdictCache};

/// A verdict engine: the verdict cache every analysis on it shares, the
/// I/O its snapshots go through, and its persist health.
pub struct Engine {
    verdicts: VerdictCache,
    io: Arc<dyn PersistIo + Send + Sync>,
    /// Failed [`Engine::persist`] calls so far.
    persist_failures: AtomicU64,
    /// Whether the last [`Engine::persist`] failed, so the in-memory
    /// cache is ahead of the snapshot on disk.
    read_through: AtomicBool,
}

impl Default for Engine {
    fn default() -> Self {
        Engine::new()
    }
}

impl Engine {
    fn with_io(io: Arc<dyn PersistIo + Send + Sync>) -> Engine {
        Engine {
            verdicts: VerdictCache::new(CACHE_CAPACITY),
            io,
            persist_failures: AtomicU64::new(0),
            read_through: AtomicBool::new(false),
        }
    }

    /// A cold engine that snapshots to the real filesystem.
    #[must_use]
    pub fn new() -> Engine {
        Engine::with_io(Arc::new(RealIo))
    }

    /// A cold engine whose snapshots go through `chaos`, so an armed
    /// persist fault hits this engine's real save path.
    #[must_use]
    pub fn with_chaos(chaos: Arc<PersistChaos>) -> Engine {
        Engine::with_io(chaos)
    }

    /// Decides every task, fanned out with the panic-safe scoped-thread
    /// `par_map` (inline for small slices and without the `parallel`
    /// feature). All analyses share this engine's verdict cache, so tasks
    /// with a common canonical form are decided once; verdicts and
    /// evidence digests are byte-identical to deciding each task alone on
    /// a cold engine.
    ///
    /// The ACT fallback respects the budget's wall-clock deadline and
    /// `cancel`, and — when a deadline is set — escalates its round cap
    /// through a doubling ladder (`configured, 2×, 4×, …` up to
    /// `budget.max_act_rounds`) while time remains. Exhaustion and
    /// interruption degrade to [`Verdict::Unknown`](crate::Verdict::Unknown)
    /// with a reason recording how far the analysis got; such verdicts
    /// are **not** cached, so a later call with a larger budget
    /// re-decides from scratch.
    ///
    /// # Panics
    ///
    /// Panics if a task has more than three processes — the splitting
    /// deformation is specific to three processes (paper, §7).
    #[must_use]
    pub fn analyze(
        &self,
        tasks: &[Task],
        options: PipelineOptions,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> Vec<Analysis> {
        par_map(tasks, |task| {
            self.analyze_task(task, options, budget, cancel)
        })
    }

    /// [`Engine::analyze`] for one task.
    pub(crate) fn analyze_task(
        &self,
        task: &Task,
        options: PipelineOptions,
        budget: &Budget,
        cancel: &CancelToken,
    ) -> Analysis {
        assert!(
            task.process_count() <= 3,
            "the characterization is specific to at most three processes"
        );
        run_engine(&self.verdicts, task, options, budget, cancel)
    }

    /// Restores the verdict cache from the snapshot in `dir`. Never
    /// fails: corruption degrades to the report's recovery counters.
    pub fn load(&self, dir: &Path) -> LoadReport {
        persist::load_store(&self.verdicts, dir, self.io.as_ref())
    }

    /// Snapshots the verdict cache into `dir` with the durable write
    /// protocol.
    ///
    /// A failure is counted in [`Engine::persist_failures`] and flips the
    /// engine to [`Engine::read_through`] until the next success; the
    /// previous snapshot stays intact on disk, so serving goes on.
    ///
    /// # Errors
    ///
    /// Returns the failing protocol step.
    pub fn persist(&self, dir: &Path) -> Result<SaveReport, PersistError> {
        let result = persist::save_store(&self.verdicts, dir, self.io.as_ref());
        if result.is_err() {
            self.persist_failures.fetch_add(1, Ordering::Relaxed);
        }
        self.read_through.store(result.is_err(), Ordering::Release);
        result
    }

    /// Cache counters, one entry per [`ArtifactKind`]: the verdict cache.
    #[must_use]
    pub fn cache_stats(&self) -> Vec<(ArtifactKind, DecisionCacheStats)> {
        vec![(ArtifactKind::Verdict, self.verdicts.lock().stats())]
    }

    /// Drops every cached verdict and resets the cache counters.
    pub fn clear_caches(&self) {
        self.verdicts.lock().clear();
    }

    /// How many [`Engine::persist`] calls have failed.
    #[must_use]
    pub fn persist_failures(&self) -> u64 {
        self.persist_failures.load(Ordering::Relaxed)
    }

    /// Whether the last [`Engine::persist`] failed, so the engine serves
    /// from memory ahead of its on-disk snapshot.
    #[must_use]
    pub fn read_through(&self) -> bool {
        self.read_through.load(Ordering::Acquire)
    }

    #[cfg(test)]
    pub(crate) fn verdicts(&self) -> &VerdictCache {
        &self.verdicts
    }
}

/// The process-default engine behind the convenience functions below
/// and `Server::start`.
pub fn default_engine() -> &'static Arc<Engine> {
    static DEFAULT: OnceLock<Arc<Engine>> = OnceLock::new();
    DEFAULT.get_or_init(|| Arc::new(Engine::new()))
}

/// Decides one (1-, 2- or 3-process) task on the [`default_engine`].
///
/// # Panics
///
/// Panics if the task has more than three processes.
///
/// # Examples
///
/// ```
/// use chromata::{analyze, PipelineOptions};
/// use chromata_task::library::{hourglass, identity_task};
///
/// assert!(analyze(&identity_task(3), PipelineOptions::default()).verdict.is_solvable());
/// assert!(analyze(&hourglass(), PipelineOptions::default()).verdict.is_unsolvable());
/// ```
#[must_use]
pub fn analyze(task: &Task, options: PipelineOptions) -> Analysis {
    default_engine().analyze_task(task, options, &Budget::unlimited(), &CancelToken::new())
}

/// [`Engine::analyze`] on the [`default_engine`], unbudgeted.
#[must_use]
pub fn analyze_batch(tasks: &[Task], options: PipelineOptions) -> Vec<Analysis> {
    default_engine().analyze(tasks, options, &Budget::unlimited(), &CancelToken::new())
}

/// [`Engine::clear_caches`] on the [`default_engine`].
pub fn clear_stage_caches() {
    default_engine().clear_caches();
}

/// [`Engine::cache_stats`] on the [`default_engine`].
#[must_use]
pub fn stage_cache_stats() -> Vec<(ArtifactKind, DecisionCacheStats)> {
    default_engine().cache_stats()
}

/// [`Engine::load`] on the [`default_engine`]; `None` when persistence
/// is disabled.
pub fn load_cache_dir(config: &CacheDirConfig) -> Option<LoadReport> {
    config.dir().map(|dir| default_engine().load(dir))
}

/// [`Engine::persist`] on the [`default_engine`]; `None` when
/// persistence is disabled.
pub fn persist_now(config: &CacheDirConfig) -> Option<Result<SaveReport, PersistError>> {
    config.dir().map(|dir| default_engine().persist(dir))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stages::chaos::PersistFault;
    use chromata_task::library::hourglass;

    #[test]
    fn two_engines_share_nothing() {
        let chaos = PersistChaos::new();
        let (a, b) = (Engine::with_chaos(Arc::clone(&chaos)), Engine::new());
        let digest = |engine: &Engine| {
            let tasks = [hourglass()];
            let options = PipelineOptions::default();
            let out = engine.analyze(&tasks, options, &Budget::unlimited(), &CancelToken::new());
            out[0].evidence.deterministic_digest()
        };
        let verdict_counts = |engine: &Engine| {
            let stats = engine.verdicts().lock().stats();
            (stats.hits, stats.misses)
        };
        let first = digest(&a);
        assert_eq!(verdict_counts(&a), (0, 1), "first call on A misses");
        assert_eq!(digest(&a), first);
        assert_eq!(verdict_counts(&a), (1, 1), "second call on A hits");
        assert_eq!(digest(&b), first);
        assert_eq!(verdict_counts(&b), (0, 1), "A's verdict is a miss on B");

        // A persist that chaos makes fail on A leaves B healthy.
        let dir = std::env::temp_dir().join(format!("chromata-engines-{}", std::process::id()));
        chaos.arm(PersistFault::Enospc);
        assert!(a.persist(&dir).is_err());
        assert!(a.read_through());
        assert_eq!(a.persist_failures(), 1);
        assert!(!b.read_through());
        assert_eq!(b.persist_failures(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
