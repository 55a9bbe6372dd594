//! Local articulation points (paper, §4).

use std::collections::BTreeSet;

use chromata_task::Task;
use chromata_topology::{Complex, Simplex, Vertex};

/// A local articulation point: a vertex `y ∈ Δ(σ)` whose link in `Δ(σ)`
/// has at least two connected components (paper, §4).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Lap {
    /// The input facet `σ` with respect to which `y` is articulated.
    pub facet: Simplex,
    /// The articulation vertex `y`.
    pub vertex: Vertex,
    /// The connected components `C₁, …, C_r` of `lk_{Δ(σ)}(y)`, ordered by
    /// minimum vertex.
    pub components: Vec<BTreeSet<Vertex>>,
}

impl Lap {
    /// The index of the component containing `z`, if any.
    #[must_use]
    pub fn component_of(&self, z: &Vertex) -> Option<usize> {
        self.components.iter().position(|c| c.contains(z))
    }

    /// Number of link components (`r ≥ 2`).
    #[must_use]
    pub fn component_count(&self) -> usize {
        self.components.len()
    }
}

/// All local articulation points of `task`, scanning input facets in
/// sorted order and, within each facet, image vertices in sorted order.
///
/// # Examples
///
/// ```
/// use chromata::laps;
/// use chromata_task::library::hourglass;
///
/// let found = laps(&hourglass());
/// assert_eq!(found.len(), 1);
/// assert_eq!(found[0].component_count(), 2);
/// ```
#[must_use]
pub fn laps(task: &Task) -> Vec<Lap> {
    let mut out = Vec::new();
    for sigma in task.input().facets() {
        let img = task.delta().image_of(sigma);
        for y in img.disconnected_link_vertices() {
            out.push(lap_at(img, sigma, y));
        }
    }
    out
}

/// The first local articulation point with respect to `sigma`, if any.
#[must_use]
pub fn first_lap_of_facet(task: &Task, sigma: &Simplex) -> Option<Lap> {
    let img = task.delta().image_of(sigma);
    let y = img.disconnected_link_vertices().into_iter().next()?;
    Some(lap_at(img, sigma, y))
}

/// The LAP at `y` of `img = Δ(σ)`.
fn lap_at(img: &Complex, sigma: &Simplex, y: Vertex) -> Lap {
    let components = img.link(&y).connected_components();
    Lap {
        facet: sigma.clone(),
        vertex: y,
        components,
    }
}

/// The LAPs of one input facet `σ`, kept current across the splits at `σ`.
///
/// A split at `y` rewrites only the simplices of `Δ(σ)` that contain `y`
/// (§4.1), so only `y`, its neighbours and its copies can change status. None but `y` does: a neighbour `v` keeps `y`'s component for
/// all its simplices with `y`, so its link only renames `y` to one copy,
/// and the link of the copy `y_i` is the connected component `C_i`. The
/// split therefore just removes `y` from the set. The set is ordered like
/// [`Complex::vertices`], so [`FacetLaps::first`] names the LAP
/// [`first_lap_of_facet`] would.
pub(crate) struct FacetLaps {
    facet: Simplex,
    /// The vertices of `Δ(σ)` with a disconnected link, as vertex
    /// simplices: the order `Complex::vertices` iterates in.
    articulated: BTreeSet<Simplex>,
}

impl FacetLaps {
    /// Scans every vertex of `img = Δ(σ)`.
    pub(crate) fn scan(img: &Complex, sigma: &Simplex) -> Self {
        FacetLaps {
            facet: sigma.clone(),
            articulated: articulated(img),
        }
    }

    /// The first LAP of `σ`, given the current `img = Δ(σ)`.
    pub(crate) fn first(&self, img: &Complex) -> Option<Lap> {
        let y = self.articulated.first()?.iter().next()?;
        Some(lap_at(img, &self.facet, y.clone()))
    }

    /// Records that `y` was split; `img` is the new `Δ(σ)`, which debug
    /// builds rescan to confirm the set.
    pub(crate) fn split(&mut self, y: &Vertex, img: &Complex) {
        self.articulated.remove(&Simplex::vertex(y.clone()));
        debug_assert_eq!(
            self.articulated,
            articulated(img),
            "a split at {y} changed another vertex's link"
        );
    }
}

/// The vertices of `img` with a disconnected link, as vertex simplices.
fn articulated(img: &Complex) -> BTreeSet<Simplex> {
    img.disconnected_link_vertices()
        .into_iter()
        .map(Simplex::vertex)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chromata_task::library::{
        hourglass, identity_task, majority_consensus, pinwheel, two_set_agreement,
    };

    #[test]
    fn hourglass_has_one_lap() {
        let found = laps(&hourglass());
        assert_eq!(found.len(), 1);
        let lap = &found[0];
        assert_eq!(lap.vertex, Vertex::of(0, 1));
        assert_eq!(lap.component_count(), 2);
        // Component lookup is consistent with membership.
        for (i, comp) in lap.components.iter().enumerate() {
            for z in comp {
                assert_eq!(lap.component_of(z), Some(i));
            }
        }
        assert_eq!(lap.component_of(&Vertex::of(0, 1)), None);
    }

    #[test]
    fn pinwheel_has_nine_laps() {
        assert_eq!(laps(&pinwheel()).len(), 9);
    }

    #[test]
    fn link_connected_tasks_have_none() {
        assert!(laps(&identity_task(3)).is_empty());
        assert!(laps(&two_set_agreement()).is_empty());
    }

    #[test]
    fn majority_consensus_has_laps() {
        // The mixed-input facets exhibit articulation points.
        assert!(!laps(&majority_consensus()).is_empty());
    }

    #[test]
    fn first_lap_agrees_with_scan() {
        let t = hourglass();
        let sigma = t.input().facets().next().unwrap().clone();
        let lap = first_lap_of_facet(&t, &sigma).expect("hourglass has a LAP");
        assert_eq!(lap, laps(&t)[0]);
        let ok = identity_task(3);
        let s2 = ok.input().facets().next().unwrap().clone();
        assert!(first_lap_of_facet(&ok, &s2).is_none());
    }
}
