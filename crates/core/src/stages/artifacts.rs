//! Typed artifacts flowing between the verdict engine's stages.
//!
//! Each artifact is a pure function of the task it is keyed by, so the
//! per-stage caches in [`super::cache`] can share them across analyses
//! and across the tasks of a batch: two tasks whose canonical forms
//! coincide reuse the same [`SubdividedComplex`]; two analyses of the
//! same split task reuse the same [`LinkGraphs`] and [`Presentations`]
//! no matter which ACT fallback bound they run with.

use std::collections::BTreeSet;

use chromata_algebra::{ChainComplex, PresentationSummary};
use chromata_task::Task;
use chromata_topology::{Complex, Graph, Simplex, Vertex};

use crate::continuous::ContinuousOutcome;
use crate::pipeline::Verdict;
use crate::splitting::SplitOutcome;

/// The §4 splitting deformation of a canonical task — the first cached
/// artifact on the three-process path.
#[derive(Clone, Debug)]
pub struct SubdividedComplex {
    /// The split, link-connected task `T'` with its splitting steps and
    /// the degenerate witness, if splitting emptied a solo image.
    pub split: SplitOutcome,
}

/// The decidable skeleton of the continuous-map condition: per-vertex
/// image domains, per-edge image graphs (with their precomputed
/// fundamental-cycle walks), and the triangle list.
///
/// Everything here is assignment-independent: the depth-first search in
/// `continuous_map_exists` consults it without recomputing images.
#[derive(Clone, Debug)]
pub struct LinkGraphs {
    /// Input vertices, in complex order (the search's variable order).
    pub vertices: Vec<Vertex>,
    /// `Δ'(x)` vertex domain per input vertex (parallel to `vertices`).
    /// An empty domain is kept (not short-circuited) so the artifact
    /// stays a total function of the task; consumers report the first
    /// empty domain in vertex order.
    pub domains: Vec<Vec<Vertex>>,
    /// Input edges (1-simplices), in complex order.
    pub edges: Vec<Simplex>,
    /// `Graph::from_complex(Δ'(e))` per input edge (parallel to `edges`).
    pub edge_graphs: Vec<Graph>,
    /// Per edge, the assignment-independent fundamental-cycle walks of
    /// its image graph: for each non-tree edge `(u, w)` (in
    /// `non_tree_edges` order), the closed walk `u → … → w → u`. The
    /// H1 tier filters these by component at solve time.
    pub edge_cycles: Vec<Vec<(Vertex, Vec<Vertex>)>>,
    /// Input triangles (2-simplices), in complex order.
    pub triangles: Vec<Simplex>,
}

impl LinkGraphs {
    /// Builds the skeleton artifact for a (typically split) task.
    #[must_use]
    pub fn build(task: &Task) -> Self {
        let input = task.input();
        let vertices: Vec<Vertex> = input.vertices().cloned().collect();
        let domains: Vec<Vec<Vertex>> = vertices
            .iter()
            .map(|x| {
                task.delta()
                    .image_of(&Simplex::vertex(x.clone()))
                    .vertices()
                    .cloned()
                    .collect()
            })
            .collect();
        let edges: Vec<Simplex> = input.simplices_of_dim(1).cloned().collect();
        let edge_graphs: Vec<Graph> = edges
            .iter()
            .map(|e| Graph::from_complex(task.delta().image_of(e)))
            .collect();
        let edge_cycles: Vec<Vec<(Vertex, Vec<Vertex>)>> = edge_graphs
            .iter()
            .map(|graph| {
                graph
                    .non_tree_edges()
                    .into_iter()
                    .map(|(u, w)| {
                        let mut walk = graph
                            .shortest_path(&u, &w)
                            .expect("non-tree edge endpoints share a component"); // chromata-lint: allow(P1): (u, w) is an edge of the graph, so a path between them always exists
                                                                                  // Close the cycle with the non-tree edge w → u.
                        walk.push(u.clone());
                        (u, walk)
                    })
                    .collect()
            })
            .collect();
        let triangles: Vec<Simplex> = input.simplices_of_dim(2).cloned().collect();
        LinkGraphs {
            vertices,
            domains,
            edges,
            edge_graphs,
            edge_cycles,
            triangles,
        }
    }

    /// The first input vertex (in vertex order) whose image is empty,
    /// if any — the defensive `EmptyVertexImage` witness.
    #[must_use]
    pub fn first_empty_domain(&self) -> Option<&Vertex> {
        self.vertices
            .iter()
            .zip(&self.domains)
            .find(|(_, dom)| dom.is_empty())
            .map(|(x, _)| x)
    }
}

/// One connected component of a triangle's image, with its edge-path
/// group presentation summarized once.
#[derive(Clone, Debug)]
pub struct ComponentPresentation {
    /// The component's vertex set (membership test for assignment seeds).
    pub members: BTreeSet<Vertex>,
    /// The component's π₁ presentation summary (simplified triviality,
    /// evident abelianness, and the group itself for word problems).
    pub summary: PresentationSummary,
}

/// Assignment-independent π₁/H₁ data for one input triangle: every
/// connected component of `Δ'(σ)` with its presentation, plus the
/// triangle's chain complex for the joint H1 system.
#[derive(Clone, Debug)]
pub struct TrianglePresentations {
    /// Components of `Δ'(σ)`, in `connected_components` order.
    pub components: Vec<ComponentPresentation>,
    /// The presentation of the empty complex, returned when a seed lies
    /// in no component (defensive; mirrors the pre-engine fallback).
    pub empty: PresentationSummary,
    /// `ChainComplex::new(Δ'(σ))` for the abelianized (H1) tier.
    pub chain: ChainComplex,
}

impl TrianglePresentations {
    /// The presentation of the component containing `seed`, or the empty
    /// presentation if the seed lies in no component.
    #[must_use]
    pub fn summary_for(&self, seed: &Vertex) -> &PresentationSummary {
        self.components
            .iter()
            .find(|c| c.members.contains(seed))
            .map_or(&self.empty, |c| &c.summary)
    }
}

/// Per-triangle presentation artifacts for a task, parallel to
/// [`LinkGraphs::triangles`].
#[derive(Clone, Debug)]
pub struct Presentations {
    /// One entry per input triangle, in `triangles` order.
    pub per_triangle: Vec<TrianglePresentations>,
}

impl Presentations {
    /// Builds presentation summaries for every component of every
    /// triangle image of `task`.
    #[must_use]
    pub fn build(task: &Task, links: &LinkGraphs) -> Self {
        let per_triangle = links
            .triangles
            .iter()
            .map(|sigma| {
                let img = task.delta().image_of(sigma);
                let components = img
                    .connected_components()
                    .into_iter()
                    .map(|members| {
                        let sub = img.filtered(|s| s.iter().all(|v| members.contains(v)));
                        ComponentPresentation {
                            summary: PresentationSummary::of(&sub),
                            members,
                        }
                    })
                    .collect();
                TrianglePresentations {
                    components,
                    empty: PresentationSummary::of(&Complex::new()),
                    chain: ChainComplex::new(img),
                }
            })
            .collect();
        Presentations { per_triangle }
    }

    /// Total number of component presentations across all triangles.
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.per_triangle.iter().map(|t| t.components.len()).sum()
    }

    /// How many triangles have every component simply connected.
    #[must_use]
    pub fn simply_connected_triangles(&self) -> usize {
        self.per_triangle
            .iter()
            .filter(|t| t.components.iter().all(|c| c.summary.is_trivial()))
            .count()
    }
}

/// Outcome of the continuous-map (homology) tier, with its search
/// effort counter.
#[derive(Clone, Debug)]
pub struct HomologyReport {
    /// The three-valued continuous-map outcome.
    pub outcome: ContinuousOutcome,
    /// Full vertex assignments whose triangle conditions were checked.
    pub assignments: u64,
}

/// Outcome of the bounded ACT exploration ladder, with its effort
/// counters and cacheability.
#[derive(Clone, Debug)]
pub struct ExplorationReport {
    /// The verdict the ladder settled on.
    pub verdict: Verdict,
    /// Backtracking nodes expanded across every round and ladder rung.
    pub nodes: u64,
    /// The final round cap the ladder reached.
    pub rounds_cap: usize,
    /// Whether the verdict is independent of the budget (and therefore
    /// safe to memoize): witnesses always are; exhaustion only when the
    /// ladder stopped exactly at the configured bound.
    pub budget_independent: bool,
}

/// The assignment `g` and certificates of an `Exists` outcome, exposed
/// for reporting.
pub(crate) fn exists_summary(outcome: &ContinuousOutcome) -> Option<(usize, usize)> {
    match outcome {
        ContinuousOutcome::Exists {
            assignment,
            certificates,
        } => Some((assignment.len(), certificates.len())),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Serde plumbing — the persistence layer (`super::persist`) snapshots the
// verdict cache, so the verdict record needs a stable, canonical
// serialized form. The stage artifacts above are rebuilt from the task
// and are never serialized. Same rules as the topology serde layer:
// explicit mirror shapes on the vendored `Content` tree and *validation
// before construction* — a corrupt snapshot entry must become an `Err`,
// never a panic or a malformed record.
// ---------------------------------------------------------------------------

use serde::de::Error as DeError;
use serde::{de, ser, Content, Deserialize, Deserializer, Serialize, Serializer};

use super::{DecisionRecord, StageTrace};
use crate::pipeline::Obstruction;

/// The engine's fixed stage names (plus the governance pseudo-stages),
/// interned back to `&'static str` on load. A snapshot naming any other
/// stage is treated as corrupt by the persist layer.
pub(crate) fn intern_stage_name(name: &str) -> Option<&'static str> {
    const KNOWN: [&str; 8] = [
        "canonicalize",
        "split",
        "link-graphs",
        "presentations",
        "homology",
        "explore",
        "budget",
        "unknown",
    ];
    KNOWN.iter().find(|&&k| k == name).copied()
}

fn field<'a>(entries: &'a [(String, Content)], name: &str) -> Result<&'a Content, String> {
    entries
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("missing field '{name}'"))
}

fn as_map(c: &Content) -> Result<&[(String, Content)], String> {
    match c {
        Content::Map(entries) => Ok(entries),
        other => Err(format!("expected an object, found {other:?}")),
    }
}

/// Unwraps an externally tagged enum: a map with exactly one entry.
fn as_variant(c: &Content) -> Result<(&str, &Content), String> {
    let entries = as_map(c)?;
    let [(tag, payload)] = entries else {
        return Err("expected exactly one variant tag".to_owned());
    };
    Ok((tag.as_str(), payload))
}

fn to_content<T: Serialize>(v: &T) -> Result<Content, String> {
    ser::to_content(v).map_err(|e| e.0)
}

fn from_content<'de, T: Deserialize<'de>>(c: &Content) -> Result<T, String> {
    de::from_content(c.clone()).map_err(|e| e.0)
}

fn variant(tag: &str, payload: Content) -> Content {
    Content::Map(vec![(tag.to_owned(), payload)])
}

macro_rules! content_backed {
    ($ty:ty) => {
        impl Serialize for $ty {
            fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
                let content = self
                    .to_content_repr()
                    .map_err(<S::Error as ser::Error>::custom)?;
                s.serialize_content(content)
            }
        }

        impl<'de> Deserialize<'de> for $ty {
            fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
                Self::from_content_repr(&d.deserialize_content()?).map_err(D::Error::custom)
            }
        }
    };
}

impl Verdict {
    fn to_content_repr(&self) -> Result<Content, String> {
        Ok(match self {
            Verdict::Solvable { certificate } => {
                variant("solvable", Content::Str(certificate.clone()))
            }
            Verdict::Unsolvable { obstruction } => {
                variant("unsolvable", obstruction.to_content_repr()?)
            }
            Verdict::Unknown { reason } => variant("unknown", Content::Str(reason.clone())),
        })
    }

    fn from_content_repr(c: &Content) -> Result<Self, String> {
        let (tag, payload) = as_variant(c)?;
        match tag {
            "solvable" => Ok(Verdict::Solvable {
                certificate: from_content(payload)?,
            }),
            "unsolvable" => Ok(Verdict::Unsolvable {
                obstruction: Obstruction::from_content_repr(payload)?,
            }),
            "unknown" => Ok(Verdict::Unknown {
                reason: from_content(payload)?,
            }),
            other => Err(format!("unknown verdict variant '{other}'")),
        }
    }
}
content_backed!(Verdict);

impl Obstruction {
    fn to_content_repr(&self) -> Result<Content, String> {
        Ok(match self {
            Obstruction::ArticulationPoints { witness } => {
                variant("articulation_points", Content::Str(witness.clone()))
            }
            Obstruction::Contractibility { witness } => {
                variant("contractibility", Content::Str(witness.clone()))
            }
        })
    }

    fn from_content_repr(c: &Content) -> Result<Self, String> {
        let (tag, payload) = as_variant(c)?;
        match tag {
            "articulation_points" => Ok(Obstruction::ArticulationPoints {
                witness: from_content(payload)?,
            }),
            "contractibility" => Ok(Obstruction::Contractibility {
                witness: from_content(payload)?,
            }),
            other => Err(format!("unknown obstruction variant '{other}'")),
        }
    }
}
content_backed!(Obstruction);

impl StageTrace {
    fn to_content_repr(&self) -> Result<Content, String> {
        Ok(serde::map_content(vec![
            ("stage", Content::Str(self.stage.to_owned())),
            ("detail", Content::Str(self.detail.clone())),
            ("work", to_content(&self.work)?),
        ]))
    }

    fn from_content_repr(c: &Content) -> Result<Self, String> {
        let entries = as_map(c)?;
        let name: String = from_content(field(entries, "stage")?)?;
        let stage = intern_stage_name(&name)
            .ok_or_else(|| format!("unknown stage name '{name}' in persisted trace"))?;
        Ok(StageTrace {
            stage,
            detail: from_content(field(entries, "detail")?)?,
            work: from_content(field(entries, "work")?)?,
        })
    }
}
content_backed!(StageTrace);

impl DecisionRecord {
    fn to_content_repr(&self) -> Result<Content, String> {
        Ok(serde::map_content(vec![
            ("verdict", self.verdict.to_content_repr()?),
            ("decided_by", Content::Str(self.decided_by.to_owned())),
            ("stages", to_content(&self.stages)?),
        ]))
    }

    fn from_content_repr(c: &Content) -> Result<Self, String> {
        let entries = as_map(c)?;
        let decided: String = from_content(field(entries, "decided_by")?)?;
        let decided_by = intern_stage_name(&decided)
            .ok_or_else(|| format!("unknown deciding stage '{decided}' in persisted record"))?;
        Ok(DecisionRecord {
            verdict: Verdict::from_content_repr(field(entries, "verdict")?)?,
            decided_by,
            stages: from_content(field(entries, "stages")?)?,
        })
    }
}
content_backed!(DecisionRecord);

/// Keeps artifact invariants honest in tests without exporting internals.
#[cfg(test)]
mod tests {
    use super::*;
    use chromata_task::library::{renaming, two_set_agreement};

    #[test]
    fn link_graphs_mirror_the_input_complex() {
        let t = two_set_agreement();
        let links = LinkGraphs::build(&t);
        assert_eq!(links.vertices.len(), links.domains.len());
        assert_eq!(links.edges.len(), links.edge_graphs.len());
        assert_eq!(links.edges.len(), links.edge_cycles.len());
        assert!(links.first_empty_domain().is_none());
        assert!(!links.triangles.is_empty());
    }

    #[test]
    fn presentations_cover_every_triangle() {
        let t = renaming(4);
        let links = LinkGraphs::build(&t);
        let pres = Presentations::build(&t, &links);
        assert_eq!(pres.per_triangle.len(), links.triangles.len());
        assert!(pres.component_count() >= links.triangles.len());
        // The empty fallback is trivially simply connected.
        for tp in &pres.per_triangle {
            assert!(tp.empty.is_trivial());
        }
    }

    #[test]
    fn summary_for_falls_back_to_empty_on_unknown_seed() {
        let t = two_set_agreement();
        let links = LinkGraphs::build(&t);
        let pres = Presentations::build(&t, &links);
        let tp = &pres.per_triangle[0];
        // A vertex that cannot occur in any output component.
        let alien = Vertex::of(0, 987_654);
        assert!(tp.summary_for(&alien).is_trivial());
        // A real member resolves to its component's summary.
        if let Some(c) = tp.components.first() {
            let seed = c.members.iter().next().expect("nonempty component");
            assert!(std::ptr::eq(tp.summary_for(seed), &c.summary));
        }
    }
}
