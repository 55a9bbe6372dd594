//! The splitting deformation (paper, §4).
//!
//! Splitting replaces a local articulation point `y ∈ Δ(σ)` by one copy
//! `y_i` per connected component of its link, re-targeting `Δ` so that:
//!
//! * facets of `Δ(τ)` for `τ ⊆ σ` move to the *single* copy of the
//!   component shared by their residual vertices (§4.1);
//! * facets of `Δ(τ)` for `τ ⊄ σ` fan out to *all* copies;
//! * the vertex-level image `{y} ∈ Δ(x)` for `x ∈ σ` receives the copies
//!   consistent with *every* input edge `x ⊂ e ⊆ σ` — the component
//!   indices realized by `y`'s partners in each `Δ(e)`, intersected.
//!   (This is forced by monotonicity of `Δ_y`, matches the neighbor
//!   argument in the proof of Lemma 4.2, and yields §6.2's "one copy per
//!   connected component" fan-out for the pinwheel.) If the intersection
//!   is empty and `{y}` was the only facet of `Δ(x)`, a solo execution of
//!   `id(x)` has no legal output in `T_y`: the split is *degenerate*, and
//!   the original task is unsolvable by the same neighbor argument.
//!
//! Lemma 4.2: splitting preserves solvability. Theorem 4.3: iterating
//! until no LAP remains yields a link-connected task `T'`.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use chromata_task::{is_canonical, Task, TaskError};
use chromata_topology::{CarrierMap, Complex, Simplex, Value, Vertex};

use crate::lap::{FacetLaps, Lap};

/// The outcome of iterated LAP elimination (Theorem 4.3): the
/// link-connected task `T'` and the sequence of splits performed.
#[derive(Clone, Debug)]
pub struct SplitOutcome {
    /// The link-connected task `T' = (I, O', Δ')` (the last well-formed
    /// task if the elimination became degenerate; the input task if it
    /// failed with `error`).
    pub task: Task,
    /// The splitting steps, in the order performed.
    pub steps: Vec<Lap>,
    /// If a split emptied some solo image, the input vertex concerned:
    /// the original task is unsolvable outright.
    pub degenerate: Option<Vertex>,
    /// Why the elimination stopped short, if a precondition or an
    /// invariant of §4 failed. Never [`SplitError::Degenerate`], which is
    /// reported in `degenerate`.
    pub error: Option<SplitError>,
}

/// Why a split produced no task.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SplitError {
    /// The split empties the solo image of this input vertex: the original
    /// task is unsolvable (module docs). The one variant a well-formed
    /// canonical three-process task can produce.
    Degenerate(Vertex),
    /// The task has this many processes, not three: the deformation is
    /// specific to 2-dimensional output complexes (paper §7).
    NotThreeProcess(usize),
    /// The LAP's link has fewer than two components.
    NotArticulated(Vertex),
    /// A residual vertex of an image simplex under `σ` lies in no link
    /// component of `y`, against Lemma 4.1.
    ResidualOutsideLink {
        /// The residual vertex.
        vertex: Vertex,
        /// The image simplex containing it and `y`.
        simplex: Simplex,
    },
    /// The split task fails validation, against Claim 1 / Lemma 4.1.
    InvalidTask(TaskError),
}

impl fmt::Display for SplitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SplitError::Degenerate(x) => {
                write!(f, "the split empties the solo image of input vertex {x}")
            }
            SplitError::NotThreeProcess(n) => write!(
                f,
                "the splitting deformation needs three processes, not {n}"
            ),
            SplitError::NotArticulated(y) => write!(f, "vertex {y} is not articulated"),
            SplitError::ResidualOutsideLink { vertex, simplex } => write!(
                f,
                "residual vertex {vertex} of {simplex} is in no link component of the split vertex"
            ),
            SplitError::InvalidTask(e) => write!(f, "the split task is invalid: {e}"),
        }
    }
}

impl std::error::Error for SplitError {}

/// Splits one local articulation point, producing `T_y = (I, O_y, Δ_y)`:
/// the one-step reference for [`split_all`]. It rebuilds every re-targeted
/// image from its facets and validates the whole task, where `split_all`
/// rewrites in place and validates once.
///
/// # Errors
///
/// Returns [`SplitError::Degenerate`] with the input vertex whose image
/// became empty when the split is degenerate (see the module docs) — a
/// sound unsolvability certificate. Any other [`SplitError`] means the
/// task does not have exactly three processes, `lap` does not identify a
/// current articulation point of the task, or the split task failed
/// validation.
///
/// # Panics
///
/// Panics (in debug builds) if the task is not canonical.
pub fn split_once(task: &Task, lap: &Lap) -> Result<Task, SplitError> {
    three_processes(task)?;
    debug_assert!(is_canonical(task), "splitting requires a canonical task");
    let plan = plan_split(task.input(), task.delta(), lap)?;
    let mut delta = task.delta().clone();
    rebuild(&mut delta, &lap.vertex, plan);
    finish(task, delta)
}

fn three_processes(task: &Task) -> Result<(), SplitError> {
    match task.process_count() {
        3 => Ok(()),
        n => Err(SplitError::NotThreeProcess(n)),
    }
}

/// The task `(I, ⋃ Δ, Δ)` for the split workspace `delta`, validated.
fn finish(task: &Task, delta: CarrierMap) -> Result<Task, SplitError> {
    let output = delta.full_image();
    Task::new(task.name().to_owned(), task.input().clone(), output, delta)
        .map_err(SplitError::InvalidTask)
}

/// A planned split: for each image `Δ(τ)` that contains `y`, the copies
/// each of its facets containing `y` is re-targeted to (§4.1). Images
/// without `y` do not change.
type Retargeting = Vec<(Simplex, BTreeMap<Simplex, Vec<Vertex>>)>;

/// Plans the split of `lap` on `delta`, which it only reads.
fn plan_split(input: &Complex, delta: &CarrierMap, lap: &Lap) -> Result<Retargeting, SplitError> {
    let y = &lap.vertex;
    if lap.component_count() < 2 {
        return Err(SplitError::NotArticulated(y.clone()));
    }
    // The copies `y_0, …, y_{r-1}`, one per link component.
    let copies: Vec<Vertex> = (0..lap.component_count())
        .map(|i| y.with_value(Value::split(y.value().clone(), i as u32)))
        .collect();
    let mut plan = Vec::new();
    for (tau, img) in delta.iter() {
        if !img.contains_vertex(y) {
            continue;
        }
        let under_sigma = tau.is_face_of(&lap.facet);
        let mut targets = BTreeMap::new();
        for rho in img.facets().filter(|rho| rho.contains(y)) {
            let to = if !under_sigma {
                // Fan-out rule for simplices not under σ.
                copies.clone()
            } else if let Some(z) = rho.iter().find(|z| *z != y) {
                // Single-copy rule: the copy is determined by the residual
                // vertices' link component.
                let copy = lap
                    .component_of(z)
                    .and_then(|i| copies.get(i))
                    .ok_or_else(|| SplitError::ResidualOutsideLink {
                        vertex: z.clone(),
                        simplex: rho.clone(),
                    })?;
                vec![copy.clone()]
            } else {
                // ρ = {y} at the vertex level: intersection rule.
                let allowed = allowed_copies_for_solo(input, delta, lap, tau);
                copies
                    .iter()
                    .zip(allowed)
                    .filter(|(_, ok)| *ok)
                    .map(|(copy, _)| copy.clone())
                    .collect()
            };
            targets.insert(rho.clone(), to);
        }
        if targets.len() == img.facet_count() && targets.values().all(Vec::is_empty) {
            // Degenerate: a solo image vanished; the original task is
            // unsolvable (module docs). Simplices are never empty, so this
            // returns.
            if let Some(x) = tau.iter().next() {
                return Err(SplitError::Degenerate(x.clone()));
            }
        }
        plan.push((tau.clone(), targets));
    }
    Ok(plan)
}

/// Applies a planned split by rebuilding each re-targeted image from its
/// facets.
fn rebuild(delta: &mut CarrierMap, y: &Vertex, plan: Retargeting) {
    for (tau, targets) in plan {
        let Some(img) = delta.get(&tau) else { continue };
        let facets: Vec<Simplex> = img
            .facets()
            .flat_map(|m| match targets.get(m) {
                Some(to) => to.iter().map(|w| m.substituted(y, w.clone())).collect(),
                None => vec![m.clone()],
            })
            .collect();
        delta.insert_shared(tau, Arc::new(Complex::from_facets(facets)));
    }
}

/// Applies a planned split by rewriting the star of `y` inside each
/// re-targeted image; every other image keeps its shared handle.
fn rewrite_in_place(delta: &mut CarrierMap, y: &Vertex, plan: Retargeting) {
    for (tau, mut targets) in plan {
        if let Some(img) = delta.image_mut(&tau) {
            img.substitute_in_star(y, |m| targets.remove(m).unwrap_or_default());
        }
    }
}

/// Which copies a solo decision `{y} ∈ Δ(x)` may keep after the split,
/// by component index: those realized by `y`'s partners in `Δ(e)` for
/// *every* input edge `x ⊂ e ⊆ σ` (intersection over incident edges
/// under σ).
fn allowed_copies_for_solo(
    input: &Complex,
    delta: &CarrierMap,
    lap: &Lap,
    x: &Simplex,
) -> Vec<bool> {
    let mut allowed = vec![true; lap.component_count()];
    for e in input.simplices_of_dim(1) {
        if !x.is_face_of(e) || !e.is_face_of(&lap.facet) {
            continue;
        }
        let Some(img) = delta.get(e) else { continue };
        if !img.contains_vertex(&lap.vertex) {
            continue;
        }
        let mut local = vec![false; allowed.len()];
        for z in img.link(&lap.vertex).vertices() {
            if let Some(flag) = lap.component_of(z).and_then(|i| local.get_mut(i)) {
                *flag = true;
            }
        }
        for (a, l) in allowed.iter_mut().zip(local) {
            *a &= l;
        }
    }
    allowed
}

/// Eliminates every local articulation point (Theorem 4.3): processes the
/// input facets in sorted order, repeatedly splitting the first LAP of the
/// current facet until none remains, then moving on. Lemma 4.1 guarantees
/// termination and that processed facets stay clean.
///
/// The elimination mutates one carrier-map workspace: each split rewrites
/// the star of the split vertex inside the images that contain it, the
/// current facet's LAPs are tracked rather than rescanned, and the task is
/// validated once, at the end. The result equals the loop of
/// [`first_lap_of_facet`](crate::first_lap_of_facet) and [`split_once`].
///
/// A LAP in a task without three processes, or a broken invariant, stops
/// the elimination with `error` set instead of panicking.
///
/// # Panics
///
/// Panics (in debug builds) if the task has a LAP and is not canonical.
///
/// # Examples
///
/// ```
/// use chromata::split_all;
/// use chromata_task::{canonicalize, library::hourglass};
///
/// let out = split_all(&canonicalize(&hourglass()));
/// assert_eq!(out.steps.len(), 1);
/// assert!(out.task.is_link_connected());
/// // Splitting the pinch disconnects the hourglass output.
/// assert_eq!(out.task.output().connected_components().len(), 2);
/// ```
#[must_use]
pub fn split_all(task: &Task) -> SplitOutcome {
    let mut steps = Vec::new();
    let result = eliminate(task, &mut steps).and_then(|(delta, degenerate)| {
        // A task no split changed is returned as given.
        let split = steps.len() > usize::from(degenerate.is_some());
        let t = if split {
            finish(task, delta)?
        } else {
            task.clone()
        };
        Ok((t, degenerate))
    });
    match result {
        Ok((t, degenerate)) => {
            debug_assert!(degenerate.is_some() || t.is_link_connected());
            SplitOutcome {
                task: t,
                steps,
                degenerate,
                error: None,
            }
        }
        Err(e) => SplitOutcome {
            task: task.clone(),
            steps,
            degenerate: None,
            error: Some(e),
        },
    }
}

/// The elimination loop of [`split_all`] on a workspace copy of `Δ`:
/// records each split in `steps` and returns the final carrier map, plus
/// the input vertex if a split was degenerate (the map is then the one
/// before that split). The task's preconditions are checked before its
/// first split, as [`split_once`] would check them.
fn eliminate(
    task: &Task,
    steps: &mut Vec<Lap>,
) -> Result<(CarrierMap, Option<Vertex>), SplitError> {
    let input = task.input();
    let mut delta = task.delta().clone();
    for sigma in input.facets() {
        let Some(img) = delta.get(sigma) else {
            continue;
        };
        let mut laps = FacetLaps::scan(img, sigma);
        while let Some(lap) = delta.get(sigma).and_then(|img| laps.first(img)) {
            if steps.is_empty() {
                three_processes(task)?;
                debug_assert!(is_canonical(task), "splitting requires a canonical task");
            }
            match plan_split(input, &delta, &lap) {
                Ok(plan) => rewrite_in_place(&mut delta, &lap.vertex, plan),
                Err(SplitError::Degenerate(x)) => {
                    steps.push(lap);
                    return Ok((delta, Some(x)));
                }
                Err(e) => return Err(e),
            }
            debug_assert!(
                delta.validate_chromatic(input).is_ok(),
                "splitting preserves carrier-map validity (Claim 1 / Lemma 4.1)"
            );
            if let Some(img) = delta.get(sigma) {
                laps.split(&lap.vertex, img);
            }
            steps.push(lap);
        }
    }
    Ok((delta, None))
}

/// Transports a solvability witness across a split — the constructive
/// content of Lemma 4.2's hard direction: given a decision map
/// `δ : Ch^r(I) → O` for the pre-split task, build `δ_y` for `T_y` by
/// sending each protocol vertex `w` with `δ(w) = y` to the copy `y_i`
/// of the component its `P(σ)`-neighbors map into (or `y_1` outside
/// `P(σ)`), exactly as in the paper's proof.
///
/// The result should be re-validated against the split task with
/// `validate_witness` — which is what the tests do, turning the proof of
/// Lemma 4.2 into an executable check.
///
/// # Panics
///
/// Panics if `map` is not total on the subdivision, or if a protocol
/// vertex mapping to `y` has no differently-colored neighbor inside
/// `P(σ)` (impossible for genuine protocol complexes, §10.2.11 of HKR).
#[must_use]
pub fn transport_witness(
    lap: &Lap,
    sub: &chromata_subdivision::Subdivision,
    map: &chromata_topology::SimplicialMap,
) -> chromata_topology::SimplicialMap {
    let p_sigma = sub.carrier.image_of(&lap.facet);
    let mut out = chromata_topology::SimplicialMap::new();
    for v in sub.complex.vertices() {
        let img = map.get(v).expect("witness must be total"); // chromata-lint: allow(P1): the witness map is validated total before verification starts
        if img != &lap.vertex {
            out.insert(v.clone(), img.clone());
            continue;
        }
        let copy_index = if p_sigma.contains_vertex(v) {
            // Any differently-colored neighbor in P(σ): chromatic maps
            // send it into lk(y), and link-connectivity of P(σ) makes the
            // choice immaterial (proof of Lemma 4.2).
            let neighbor = p_sigma
                .simplices_of_dim(1)
                .filter(|e| e.contains(v))
                .flat_map(chromata_topology::Simplex::iter)
                .find(|w| w.color() != v.color())
                .unwrap_or_else(|| panic!("{v} has no neighbor in P(σ)")) // chromata-lint: allow(P1): every vertex of P(sigma) has a neighbor by construction of the split complex
                .clone();
            let w_img = map.get(&neighbor).expect("witness must be total"); // chromata-lint: allow(P1): the witness map is validated total before verification starts
            lap.component_of(w_img)
                // chromata-lint: allow(P1): a chromatic simplicial map sends neighbors of y's preimage into lk(y)
                .unwrap_or_else(|| panic!("neighbor image {w_img} not in lk(y)"))
        } else {
            0
        };
        out.insert(
            v.clone(),
            lap.vertex
                .with_value(Value::split(lap.vertex.value().clone(), copy_index as u32)),
        );
    }
    out
}

/// Projects a decision vertex of a split task back to the original
/// (pre-splitting) vertex — the easy direction of Lemma 4.2: an algorithm
/// for `T_y` yields one for `T` by outputting `y` instead of `y_i`.
#[must_use]
pub fn unsplit_vertex(v: &Vertex) -> Vertex {
    v.with_value(v.value().unsplit().clone())
}

/// Projects a whole decided simplex of a split task back to the original
/// task's output complex.
#[must_use]
pub fn unsplit_simplex(s: &Simplex) -> Simplex {
    Simplex::from_iter(s.iter().map(unsplit_vertex))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lap::laps;
    use chromata_task::canonicalize;
    use chromata_task::library::{hourglass, majority_consensus, pinwheel};

    #[test]
    fn hourglass_split_shape() {
        // The hourglass is already canonical (single facet, injective Δ at
        // the vertex level) — canonicalize anyway as the pipeline does.
        let t = canonicalize(&hourglass());
        let out = split_all(&t);
        assert_eq!(out.steps.len(), 1);
        let t2 = &out.task;
        assert!(t2.is_link_connected());
        // One vertex became two: 8 + 1 = 9 vertices, two components.
        assert_eq!(t2.output().vertex_count(), 9);
        assert_eq!(t2.output().connected_components().len(), 2);
        assert_eq!(t2.output().facet_count(), 5, "facet count unchanged");
    }

    #[test]
    fn split_is_canonical_and_valid() {
        // Claim 1: canonicity is preserved by each step.
        let t = canonicalize(&hourglass());
        let out = split_all(&t);
        assert!(is_canonical(&out.task));
        out.task
            .delta()
            .validate_chromatic(out.task.input())
            .expect("Δ' is a valid carrier map");
    }

    #[test]
    fn a_lap_missing_a_residual_vertex_is_an_error() {
        // A hand-built LAP whose second component lost a vertex: the
        // single-copy rule has no copy for that residual vertex.
        let t = canonicalize(&hourglass());
        let mut lap = laps(&t)
            .into_iter()
            .next()
            .expect("the hourglass has a LAP");
        let missing = lap.components[1]
            .pop_first()
            .expect("components are non-empty");
        match split_once(&t, &lap) {
            Err(SplitError::ResidualOutsideLink { vertex, .. }) => assert_eq!(vertex, missing),
            other => panic!("expected a residual-outside-link error, got {other:?}"),
        }
        lap.components.truncate(1);
        assert!(matches!(
            split_once(&t, &lap),
            Err(SplitError::NotArticulated(_))
        ));
    }

    #[test]
    fn lemma_4_1_monotone_progress() {
        // Splitting strictly reduces the LAP count w.r.t. the split facet
        // and never adds LAPs to clean facets.
        let t = canonicalize(&pinwheel());
        let mut current = t;
        let mut last_count = laps(&current).len();
        assert!(last_count > 0);
        while let Some(lap) = laps(&current).first().cloned() {
            let next = split_once(&current, &lap).expect("pinwheel splits are non-degenerate");
            let next_count = laps(&next).len();
            assert!(
                next_count < last_count,
                "LAP count must strictly decrease: {last_count} -> {next_count}"
            );
            current = next;
            last_count = next_count;
        }
        assert!(current.is_link_connected());
    }

    #[test]
    fn pinwheel_splits_into_disjoint_components() {
        // The paper's Fig. 8 triangulation (available only graphically)
        // splits into 3 components; our rotation-symmetric reconstruction
        // splits into 6 — the same obstruction (strictly more than one
        // component, with every solo output trapped away from some
        // process's outputs), recorded in EXPERIMENTS.md.
        let out = split_all(&canonicalize(&pinwheel()));
        assert!(out.degenerate.is_none());
        assert!(out.task.is_link_connected());
        let comps = out.task.output().connected_components().len();
        assert_eq!(comps, 6, "measured component count changed: {comps}");
        assert!(comps >= 3);
    }

    #[test]
    fn majority_consensus_splits_clean() {
        let out = split_all(&canonicalize(&majority_consensus()));
        assert!(out.task.is_link_connected());
        assert!(!out.steps.is_empty());
    }

    #[test]
    fn vertex_level_fanout_matches_section_6_2() {
        // After splitting the pinwheel, each solo input vertex may decide
        // multiple copies — one per link component (§6.2).
        let out = split_all(&canonicalize(&pinwheel()));
        // The input vertex of P0 is (0, 1) — inputs are untouched by
        // canonicalization and splitting.
        let solo = Simplex::vertex(Vertex::of(0, 1));
        let img = out.task.delta().image_of(&solo);
        assert!(
            img.vertex_count() >= 2,
            "solo decision fans out to one copy per component, got {img}"
        );
    }

    #[test]
    fn lemma_4_2_witness_transport() {
        // Renaming with 3 names is solvable *and* has LAPs: find a
        // witness, split one LAP, transport the witness per the proof of
        // Lemma 4.2, and re-validate it against the split task.
        use crate::act::{find_decision_map, validate_witness};
        use chromata_subdivision::iterated_chromatic_subdivision;

        let t = canonicalize(&chromata_task::library::renaming(3));
        let lap = crate::lap::laps(&t).into_iter().next().expect("has LAPs");
        let split = split_once(&t, &lap).expect("non-degenerate");
        for rounds in 0..=2usize {
            let sub = iterated_chromatic_subdivision(t.input(), rounds);
            let Some(map) = find_decision_map(&sub, &t) else {
                continue;
            };
            assert!(validate_witness(&sub, &t, &map));
            let transported = transport_witness(&lap, &sub, &map);
            assert!(
                validate_witness(&sub, &split, &transported),
                "transported witness invalid at {rounds} round(s)"
            );
            return;
        }
        panic!("no witness found for renaming-3 within 2 rounds");
    }

    #[test]
    fn unsplit_roundtrip() {
        let out = split_all(&canonicalize(&hourglass()));
        for (tau, img) in out.task.delta().iter() {
            for f in img.facets() {
                let back = unsplit_simplex(f);
                // The original canonical task must carry the projected
                // simplex (Lemma 4.2, easy direction).
                let orig = canonicalize(&hourglass());
                assert!(
                    orig.delta().carries(tau, &back),
                    "unsplit image {back} escapes Δ({tau})"
                );
            }
        }
    }
}
