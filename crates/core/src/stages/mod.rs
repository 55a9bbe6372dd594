//! The staged verdict engine (architecture layer under [`crate::Engine`]).
//!
//! The decision procedure is inherently staged — canonicalize, split
//! (§4), build link graphs, derive π₁ presentations, run the
//! homology/word-problem tiers (§5), fall back to the bounded ACT
//! exploration — and this module makes the stages explicit:
//!
//! ```text
//!                                   ┌─ hit ──▶ replay the stored traces
//! canonicalize ─▶ split ─▶ verdict ─┤
//!                          cache    └─ miss ─▶ link-graphs ─▶ presentations ─▶ homology ─▶ explore
//! ```
//!
//! Every stage is a plain call, timed by [`timed`]: it returns its typed
//! artifact plus one [`StageEvidence`] record (detail, work counter,
//! wall clock). The engine threads the evidence into the
//! [`EvidenceChain`] every [`crate::Analysis`] carries, which is what
//! `chromata explain` prints.
//!
//! The one memo is the verdict cache, keyed `(canonical task, ACT
//! bound)`: Theorem 5.1 makes the verdict a pure function of the
//! canonical task, so a hit replays the stored post-split traces and
//! skips every decision tier. The intermediate artifacts are rebuilt on
//! each miss; they are cheap next to the bookkeeping a cache of them
//! would need.

pub mod artifacts;
pub mod cache;
pub mod chaos;
pub mod persist;

use std::fmt;
use std::time::Duration;

use chromata_task::{canonicalize, Task};
use chromata_topology::{structural_fingerprint, Budget, CancelToken, Stopwatch};

use crate::act::solve_act_governed_with_stats;
use crate::act::ActOutcome;
use crate::continuous::{continuous_map_exists_with, ContinuousOutcome, ImpossibilityReason};
use crate::pipeline::{Analysis, Obstruction, PipelineOptions, Verdict};
use crate::splitting::{split_all, SplitOutcome};

use artifacts::{exists_summary, ExplorationReport, HomologyReport, LinkGraphs, Presentations};
use cache::SharedCache;

/// How a stage's evidence was produced.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CacheEvent {
    /// The stage ran in this analysis.
    Uncached,
    /// Replayed from a cached verdict record (the stage did not run).
    Replayed,
}

impl CacheEvent {
    /// Stable lower-case label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CacheEvent::Uncached => "uncached",
            CacheEvent::Replayed => "replay",
        }
    }
}

impl fmt::Display for CacheEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// One stage's contribution to an analysis: what it concluded, how much
/// work it did, and whether it ran or was replayed.
#[derive(Clone, Debug)]
pub struct StageEvidence {
    /// Stage name (one of the engine's fixed stage names).
    pub stage: &'static str,
    /// Deterministic human-readable summary of the artifact.
    pub detail: String,
    /// Deterministic work counter (facets, assignments, search nodes …).
    pub work: u64,
    /// Whether the stage ran or was replayed from the verdict cache.
    pub cache: CacheEvent,
    /// Wall-clock time the stage took in this run (zero when replayed).
    /// Excluded from [`EvidenceChain::deterministic_digest`].
    pub wall: Duration,
}

/// The full evidence chain of one analysis: every stage that ran (or
/// was replayed from the verdict cache) plus the stage that decided.
#[derive(Clone, Debug)]
pub struct EvidenceChain {
    /// Per-stage evidence, in execution order.
    pub stages: Vec<StageEvidence>,
    /// Name of the stage whose answer became the verdict.
    pub decided_by: &'static str,
}

impl EvidenceChain {
    pub(crate) fn new() -> Self {
        EvidenceChain {
            stages: Vec::new(),
            decided_by: "unknown",
        }
    }

    /// A fingerprint over the *deterministic* parts of the chain — stage
    /// names, details, work counters and the deciding stage — excluding
    /// wall-clock and cache events, which legitimately differ between a
    /// cold and a warm run of the same analysis. Two analyses of the
    /// same task under the same options always agree on this digest,
    /// whether run alone, repeated, or inside [`crate::analyze_batch`].
    #[must_use]
    pub fn deterministic_digest(&self) -> u64 {
        let parts: Vec<(&str, &str, u64)> = self
            .stages
            .iter()
            .map(|s| (s.stage, s.detail.as_str(), s.work))
            .collect();
        structural_fingerprint(&(parts, self.decided_by))
    }
}

impl fmt::Display for EvidenceChain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "decided by: {}", self.decided_by)?;
        for s in &self.stages {
            writeln!(
                f,
                "  {:<13} {:<8} work {:>8}  {:>9.3}ms  {}",
                s.stage,
                s.cache,
                s.work,
                s.wall.as_secs_f64() * 1e3,
                s.detail,
            )?;
        }
        Ok(())
    }
}

/// The compact, replayable form of a stage's evidence stored in the
/// verdict cache: everything deterministic, nothing circumstantial.
#[derive(Clone, Debug)]
pub(crate) struct StageTrace {
    pub stage: &'static str,
    pub detail: String,
    pub work: u64,
}

impl StageTrace {
    pub(crate) fn of(ev: &StageEvidence) -> Self {
        StageTrace {
            stage: ev.stage,
            detail: ev.detail.clone(),
            work: ev.work,
        }
    }

    pub(crate) fn replay(&self) -> StageEvidence {
        StageEvidence {
            stage: self.stage,
            detail: self.detail.clone(),
            work: self.work,
            cache: CacheEvent::Replayed,
            wall: Duration::ZERO,
        }
    }
}

/// What the verdict cache stores: the verdict, the deciding stage, and
/// the deterministic traces of the post-split stages that produced it,
/// so a cache hit replays the identical evidence chain.
#[derive(Clone, Debug)]
pub(crate) struct DecisionRecord {
    pub verdict: Verdict,
    pub decided_by: &'static str,
    pub stages: Vec<StageTrace>,
}

/// The engine's one cache: `(canonical task, ACT bound)` → verdict record.
pub(crate) type VerdictCache = SharedCache<(Task, usize), DecisionRecord>;

/// Runs one stage: times `compute`, summarizes its artifact with
/// `summary` into `(detail, work)`, and appends the evidence to `chain`.
fn timed<A>(
    chain: &mut EvidenceChain,
    stage: &'static str,
    compute: impl FnOnce() -> A,
    summary: impl FnOnce(&A) -> (String, u64),
) -> A {
    let clock = Stopwatch::start();
    let artifact = compute();
    let (detail, work) = summary(&artifact);
    chain.stages.push(StageEvidence {
        stage,
        detail,
        work,
        cache: CacheEvent::Uncached,
        wall: clock.elapsed(),
    });
    artifact
}

fn split_summary(split: &SplitOutcome) -> (String, u64) {
    let detail = match (&split.error, &split.degenerate) {
        (Some(e), _) => format!("{} split step(s); stopped: {e}", split.steps.len()),
        (None, Some(x)) => format!(
            "{} split step(s); degenerate at input vertex {x}",
            split.steps.len()
        ),
        (None, None) => format!(
            "{} split step(s); O' = {} facet(s)",
            split.steps.len(),
            split.task.output().facet_count()
        ),
    };
    (detail, split.steps.len() as u64)
}

fn links_summary(links: &LinkGraphs) -> (String, u64) {
    let detail = format!(
        "{} vertex domain(s), {} edge graph(s), {} triangle(s)",
        links.vertices.len(),
        links.edges.len(),
        links.triangles.len()
    );
    let work = links.vertices.len() + links.edges.len() + links.triangles.len();
    (detail, work as u64)
}

fn presentations_summary(presentations: &Presentations) -> (String, u64) {
    let detail = format!(
        "{} component presentation(s) across {} triangle(s); {} fully simply connected",
        presentations.component_count(),
        presentations.per_triangle.len(),
        presentations.simply_connected_triangles()
    );
    (detail, presentations.component_count() as u64)
}

fn homology_summary(report: &HomologyReport) -> (String, u64) {
    let detail = match &report.outcome {
        ContinuousOutcome::Exists { .. } => {
            let (assigned, certs) = exists_summary(&report.outcome).unwrap_or((0, 0));
            format!("carried map exists: {assigned} vertex assignment(s), {certs} certificate(s)")
        }
        ContinuousOutcome::Impossible { reason } => match reason {
            ImpossibilityReason::EmptyVertexImage(x) => {
                format!("impossible: empty image at input vertex {x}")
            }
            ImpossibilityReason::SkeletonDisconnected { edge } => {
                format!("impossible: skeleton disconnected across input edge {edge}")
            }
            ImpossibilityReason::HomologyObstruction { triangle } => {
                format!("impossible: H1 obstruction at input triangle {triangle}")
            }
        },
        ContinuousOutcome::Undetermined { reason } => format!("undetermined: {reason}"),
    };
    (detail, report.assignments)
}

fn explore_summary(report: &ExplorationReport) -> (String, u64) {
    let kind = match &report.verdict {
        Verdict::Solvable { .. } => "found a decision map",
        Verdict::Unsolvable { .. } => "refuted",
        Verdict::Unknown { .. } => "exhausted",
    };
    let detail = format!(
        "ACT ladder {kind} at round cap {}; {} node(s) expanded",
        report.rounds_cap, report.nodes
    );
    (detail, report.nodes)
}

/// The bounded ACT exploration ladder (the paper's superseded baseline,
/// used as the fallback for the undecidable residue): start at the
/// configured round cap (clamped by the budget) and, when a deadline is
/// set, keep doubling the cap while wall-clock remains — cheap first
/// attempt, deeper retries only with leftover time.
fn act_ladder(
    task: &Task,
    reason: &str,
    configured_rounds: usize,
    budget: &Budget,
    cancel: &CancelToken,
) -> ExplorationReport {
    let mut cap = configured_rounds.min(budget.max_act_rounds);
    let mut nodes = 0u64;
    loop {
        let (outcome, searched) =
            solve_act_governed_with_stats(task, &budget.with_max_act_rounds(cap), cancel);
        nodes += searched;
        match outcome {
            ActOutcome::Solvable { rounds, .. } => {
                // A witness is budget-independent: always cacheable.
                return ExplorationReport {
                    verdict: Verdict::Solvable {
                        certificate: format!(
                            "ACT fallback found a decision map at {rounds} round(s)"
                        ),
                    },
                    nodes,
                    rounds_cap: cap,
                    budget_independent: true,
                };
            }
            ActOutcome::Interrupted {
                rounds_completed,
                interrupt,
            } => {
                return ExplorationReport {
                    verdict: Verdict::Unknown {
                        reason: format!(
                            "{reason}; ACT fallback {interrupt} after ruling out \
                             {rounds_completed} of {cap} round(s)"
                        ),
                    },
                    nodes,
                    rounds_cap: cap,
                    budget_independent: false,
                };
            }
            ActOutcome::Exhausted { .. } => {
                let next = cap.saturating_mul(2).min(budget.max_act_rounds);
                if budget.deadline.is_none() || budget.deadline_exceeded() || next == cap {
                    // The verdict depends on the budget unless the
                    // ladder stopped exactly at the configured bound.
                    return ExplorationReport {
                        verdict: Verdict::Unknown {
                            reason: format!("{reason}; ACT fallback exhausted {cap} round(s)"),
                        },
                        nodes,
                        rounds_cap: cap,
                        budget_independent: cap == configured_rounds,
                    };
                }
                cap = next;
            }
        }
    }
}

/// Runs the post-split decision stages, appending their evidence to
/// `chain`. Returns the verdict, the name of the deciding stage, and
/// whether the verdict is budget-independent and therefore safe to
/// memoize.
fn decide_staged(
    split: &SplitOutcome,
    options: PipelineOptions,
    budget: &Budget,
    cancel: &CancelToken,
    chain: &mut EvidenceChain,
) -> (Verdict, &'static str, bool) {
    if let Err(interrupt) = budget.check(cancel) {
        return (
            Verdict::Unknown {
                reason: format!("analysis {interrupt} before the decision tiers ran"),
            },
            "budget",
            false,
        );
    }
    if let Some(e) = &split.error {
        // A broken precondition or invariant of the split decides
        // nothing; it is not memoized.
        return (
            Verdict::Unknown {
                reason: format!("splitting failed: {e}"),
            },
            "split",
            false,
        );
    }
    if let Some(x) = &split.degenerate {
        return (
            Verdict::Unsolvable {
                obstruction: Obstruction::ArticulationPoints {
                    witness: format!(
                        "splitting emptied the solo image of input vertex {x}: \
                         the incident edges force incompatible link components"
                    ),
                },
            },
            "split",
            true,
        );
    }
    let t = &split.task;
    let links = timed(chain, "link-graphs", || LinkGraphs::build(t), links_summary);
    let presentations = timed(
        chain,
        "presentations",
        || Presentations::build(t, &links),
        presentations_summary,
    );
    let homology = timed(
        chain,
        "homology",
        || {
            let (outcome, assignments) = continuous_map_exists_with(&links, &presentations);
            HomologyReport {
                outcome,
                assignments,
            }
        },
        homology_summary,
    );
    match homology.outcome {
        ContinuousOutcome::Exists { certificates, .. } => (
            Verdict::Solvable {
                certificate: if certificates.is_empty() {
                    "continuous carried map exists (vertex/edge tiers)".to_owned()
                } else {
                    certificates.join("; ")
                },
            },
            "homology",
            true,
        ),
        ContinuousOutcome::Impossible { reason } => {
            let obstruction = match reason {
                ImpossibilityReason::SkeletonDisconnected { edge } => {
                    Obstruction::ArticulationPoints {
                        witness: format!(
                            "after {} split step(s), no choice of solo outputs is connected across input edge {edge}",
                            split.steps.len()
                        ),
                    }
                }
                ImpossibilityReason::HomologyObstruction { triangle } => {
                    Obstruction::Contractibility {
                        witness: format!(
                            "the boundary loop of input triangle {triangle} is non-contractible (H1 certificate)"
                        ),
                    }
                }
                ImpossibilityReason::EmptyVertexImage(x) => Obstruction::ArticulationPoints {
                    witness: format!("input vertex {x} has an empty image"),
                },
            };
            (Verdict::Unsolvable { obstruction }, "homology", true)
        }
        ContinuousOutcome::Undetermined { reason } => {
            if options.act_fallback_rounds == 0 {
                return (Verdict::Unknown { reason }, "homology", true);
            }
            let report = timed(
                chain,
                "explore",
                || act_ladder(t, &reason, options.act_fallback_rounds, budget, cancel),
                explore_summary,
            );
            (report.verdict, "explore", report.budget_independent)
        }
    }
}

/// The full staged engine behind [`crate::Engine::analyze`]: live
/// canonicalization and split, verdict-cache replay, and the decision
/// tiers on a miss.
pub(crate) fn run_engine(
    verdicts: &VerdictCache,
    task: &Task,
    options: PipelineOptions,
    budget: &Budget,
    cancel: &CancelToken,
) -> Analysis {
    let mut evidence = EvidenceChain::new();

    let canonical = timed(
        &mut evidence,
        "canonicalize",
        || canonicalize(&task.restricted_to_reachable()),
        |canonical| {
            let detail = format!(
                "|I| = {} facet(s); canonical |O*| = {} facet(s)",
                canonical.input().facet_count(),
                canonical.output().facet_count()
            );
            (detail, canonical.output().facet_count() as u64)
        },
    );

    let split = if task.process_count() == 3 {
        timed(
            &mut evidence,
            "split",
            || split_all(&canonical),
            split_summary,
        )
    } else {
        // Proposition 5.4: two-process tasks are decided on the raw task;
        // one-process tasks trivially.
        timed(
            &mut evidence,
            "split",
            || SplitOutcome {
                task: canonical.clone(),
                steps: Vec::new(),
                degenerate: None,
                error: None,
            },
            |_| {
                let detail = format!(
                    "splitting skipped for a {}-process task (Proposition 5.4)",
                    task.process_count()
                );
                (detail, 0)
            },
        )
    };

    let key = (canonical.clone(), options.act_fallback_rounds);
    let cached = verdicts.lock().get(&key);
    // Decide outside the lock; a racing miss recomputes the same verdict.
    let verdict = match cached {
        Some(record) => {
            // Replay the deterministic post-split traces: the evidence
            // chain of a cache hit matches the chain that built it.
            for trace in &record.stages {
                evidence.stages.push(trace.replay());
            }
            evidence.decided_by = record.decided_by;
            record.verdict
        }
        None => {
            let decided_from = evidence.stages.len();
            let (v, decided_by, cacheable) =
                decide_staged(&split, options, budget, cancel, &mut evidence);
            evidence.decided_by = decided_by;
            // Budget-induced answers are circumstantial — never poison the
            // cache with them; a later unstarved run must re-decide.
            if cacheable {
                verdicts.lock().insert(
                    key,
                    DecisionRecord {
                        verdict: v.clone(),
                        decided_by,
                        stages: evidence
                            .stages
                            .iter()
                            .skip(decided_from)
                            .map(StageTrace::of)
                            .collect(),
                    },
                );
            }
            v
        }
    };
    Analysis {
        canonical,
        split,
        verdict,
        evidence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chromata_task::library::{klein_bottle_doubled_loop, loop_agreement};

    #[test]
    fn evidence_digest_ignores_wall_and_cache_events() {
        let mut a = EvidenceChain::new();
        a.decided_by = "homology";
        a.stages.push(StageEvidence {
            stage: "split",
            detail: "0 split step(s); O' = 3 facet(s)".into(),
            work: 0,
            cache: CacheEvent::Uncached,
            wall: Duration::from_millis(7),
        });
        let mut b = a.clone();
        b.stages[0].cache = CacheEvent::Replayed;
        b.stages[0].wall = Duration::ZERO;
        assert_eq!(a.deterministic_digest(), b.deterministic_digest());
        // But the deterministic parts do matter.
        b.stages[0].work = 1;
        assert_ne!(a.deterministic_digest(), b.deterministic_digest());
        let mut c = a.clone();
        c.decided_by = "explore";
        assert_ne!(a.deterministic_digest(), c.deterministic_digest());
    }

    #[test]
    fn a_failed_split_decides_unknown_and_is_not_memoized() {
        let task = chromata_task::library::hourglass();
        let split = SplitOutcome {
            task: task.clone(),
            steps: Vec::new(),
            degenerate: None,
            error: Some(crate::splitting::SplitError::NotThreeProcess(2)),
        };
        let mut chain = EvidenceChain::new();
        let (verdict, decided_by, cacheable) = decide_staged(
            &split,
            PipelineOptions::default(),
            &Budget::unlimited(),
            &CancelToken::new(),
            &mut chain,
        );
        assert!(
            matches!(&verdict, Verdict::Unknown { reason } if reason.contains("three processes")),
            "{verdict}"
        );
        assert_eq!(decided_by, "split");
        assert!(!cacheable);
        assert!(chain.stages.is_empty(), "no decision tier ran");
    }

    #[test]
    fn explore_stage_is_uncacheable_when_budget_dependent() {
        // The doubled Klein loop reaches the ACT fallback; a budget that
        // clamps the configured bound makes its exhaustion circumstantial,
        // so the verdict is reported but never memoized.
        let task = loop_agreement("klein-doubled-clamped", klein_bottle_doubled_loop());
        let options = PipelineOptions {
            act_fallback_rounds: 1,
        };
        let budget = Budget::unlimited().with_max_act_rounds(0);
        let verdicts = VerdictCache::new(cache::CACHE_CAPACITY);
        let a = run_engine(&verdicts, &task, options, &budget, &CancelToken::new());
        assert_eq!(a.evidence.decided_by, "explore");
        assert!(
            matches!(a.verdict, Verdict::Unknown { .. }),
            "{}",
            a.verdict
        );
        assert!(verdicts.lock().is_empty(), "a clamped ladder was memoized");
        let report = act_ladder(&a.split.task, "r", 1, &budget, &CancelToken::new());
        assert!(!report.budget_independent);
        assert_eq!(report.rounds_cap, 0);
    }
}
