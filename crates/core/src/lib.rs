//! # chromata
//!
//! A complete implementation of *"Solvability Characterization for General
//! Three-Process Tasks"* (Attiya, Fraigniaud, Paz, Rajsbaum; PODC 2025):
//! decision machinery for the wait-free solvability of chromatic
//! three-process tasks in asynchronous read/write shared memory.
//!
//! ## The characterization
//!
//! The paper proves that a three-process task `T = (I, O, Δ)` is wait-free
//! solvable iff, after transforming `T` into canonical form (§3) and
//! splitting every *local articulation point* of the output complex (§4),
//! there is a continuous map `|I| → |O'|` carried by the deformed relation
//! `Δ'` (§5, Theorem 5.1). The pipeline here mirrors that statement:
//!
//! ```
//! use chromata::{analyze, PipelineOptions};
//! use chromata_task::library::hourglass;
//!
//! let analysis = analyze(&hourglass(), PipelineOptions::default());
//! assert_eq!(analysis.split.steps.len(), 1); // one pinch vertex split
//! assert!(analysis.verdict.is_unsolvable());
//! ```
//!
//! ## Modules
//!
//! * [`laps`] / [`Lap`] — local articulation point detection (§4);
//! * [`split_once`] / [`split_all`] — the splitting deformation and
//!   Theorem 4.3's elimination loop;
//! * [`continuous_map_exists`] — the continuous-map condition of
//!   Theorem 5.1, with exact tiers and sound H1 obstructions;
//! * [`solve_act`] — the baseline Herlihy–Shavit ACT search the paper's
//!   characterization supersedes (used for benchmarking and
//!   cross-validation);
//! * [`corollary_5_5`] / [`every_cycle_crosses_a_lap`] — the §5.3
//!   impossibility corollaries;
//! * [`decide_two_process`] / [`synthesize_two_process`] — Proposition
//!   5.4's complete two-process decider, with search-free witness
//!   synthesis for the solvable side;
//! * [`Engine`] — the end-to-end pipeline as a value: its verdict cache,
//!   its snapshot I/O and [`Engine::analyze`], the one entry point;
//!   [`analyze`] decides one task on the [`default_engine`].
//!
//! The re-exported crates [`topology`], [`algebra`], [`subdivision`]
//! and [`task`] provide the substrates.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod act;
mod continuous;
mod corollaries;
mod engine;
mod lap;
mod pipeline;
mod splitting;
pub mod stages;
mod two_process;

pub use act::{
    find_decision_map, find_decision_map_governed, solve_act, solve_act_governed, validate_witness,
    ActOutcome,
};
pub use chromata_topology::{Budget, CancelToken, Interrupt};
pub use continuous::{continuous_map_exists, ContinuousOutcome, ImpossibilityReason};
pub use corollaries::{corollary_5_5, crossing_graph, every_cycle_crosses_a_lap};
pub use engine::{
    analyze, analyze_batch, clear_stage_caches, default_engine, load_cache_dir, persist_now,
    stage_cache_stats, Engine,
};
pub use lap::{first_lap_of_facet, laps, Lap};
pub use pipeline::{Analysis, DecisionCacheStats, Obstruction, PipelineOptions, Verdict};
pub use splitting::{
    split_all, split_once, transport_witness, unsplit_simplex, unsplit_vertex, SplitOutcome,
};
pub use stages::artifacts::{
    ComponentPresentation, ExplorationReport, HomologyReport, LinkGraphs, Presentations,
    TrianglePresentations,
};
pub use stages::cache::{ArtifactKind, SharedCache, StageCache};
pub use stages::chaos::{
    parse_fault_kinds, FaultKind, FaultSchedule, NetFault, PersistChaos, PersistFault,
    PlannedFault, ALL_FAULT_KINDS,
};
pub use stages::persist::{
    audit_cache_dir, clear_cache_dir, CacheDirConfig, LoadReport, PersistError, SaveReport,
    SnapshotAudit, SnapshotStatus, CACHE_DIR_ENV,
};
pub use stages::{CacheEvent, EvidenceChain, StageEvidence};
pub use two_process::{decide_two_process, synthesize_two_process};

pub use chromata_algebra as algebra;
pub use chromata_subdivision as subdivision;
pub use chromata_task as task;
pub use chromata_topology as topology;
