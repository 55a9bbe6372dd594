//! Carrier maps: monotone simplex-to-subcomplex maps.
//!
//! A *carrier map* `Δ : K → 2^{K'}` assigns to every simplex of `K` a pure
//! subcomplex of `K'` of the same dimension, monotonically (`σ' ⊆ σ` implies
//! `Δ(σ') ⊆ Δ(σ)`), and — in the chromatic setting — with matching color
//! sets (paper, §2.2–2.3). Task specifications are carrier maps, and so are
//! the carriers of protocol complexes.

use std::collections::BTreeMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use crate::complex::Complex;
use crate::simplex::Simplex;
use crate::vertex::Vertex;

/// Why a [`CarrierMap`] fails validation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum CarrierViolation {
    /// A simplex of the domain complex has no image assigned.
    MissingSimplex(Simplex),
    /// `Δ(σ)` is empty for a domain simplex `σ`.
    EmptyImage(Simplex),
    /// `Δ(σ)` is not pure of dimension `dim σ`.
    NotPureSameDimension(Simplex),
    /// Some facet of `Δ(σ)` does not have the same color set as `σ`.
    ColorMismatch(Simplex),
    /// Monotonicity fails: `Δ(σ') ⊄ Δ(σ)` for `σ' ⊆ σ`.
    NotMonotonic {
        /// The face `σ'` whose image escapes.
        smaller: Simplex,
        /// The simplex `σ ⊇ σ'`.
        larger: Simplex,
    },
}

impl fmt::Display for CarrierViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CarrierViolation::MissingSimplex(s) => write!(f, "no image assigned for {s}"),
            CarrierViolation::EmptyImage(s) => write!(f, "image of {s} is empty"),
            CarrierViolation::NotPureSameDimension(s) => {
                write!(f, "image of {s} is not pure of dimension {}", s.dimension())
            }
            CarrierViolation::ColorMismatch(s) => {
                write!(f, "image of {s} has facets with mismatched colors")
            }
            CarrierViolation::NotMonotonic { smaller, larger } => {
                write!(f, "Δ({smaller}) is not a subcomplex of Δ({larger})")
            }
        }
    }
}

impl std::error::Error for CarrierViolation {}

/// A carrier map, stored as an explicit table from domain simplices to
/// shared image subcomplexes.
///
/// Image subcomplexes are reference-counted ([`Arc`]) so that carrier maps
/// produced by memoized subdivision can share one image complex across many
/// domain simplices (and across maps) without deep copies.
///
/// # Examples
///
/// ```
/// use chromata_topology::{CarrierMap, Complex, Simplex, Vertex};
///
/// // One-process "task": the vertex P0:0 may output P0:10.
/// let sigma = Simplex::vertex(Vertex::of(0, 0));
/// let out = Complex::from_facets([Simplex::vertex(Vertex::of(0, 10))]);
/// let mut delta = CarrierMap::new();
/// delta.insert(sigma.clone(), out.clone());
/// let input = Complex::from_facets([sigma.clone()]);
/// assert!(delta.validate_chromatic(&input).is_ok());
/// assert_eq!(delta.get(&sigma), Some(&out));
/// ```
#[derive(Clone, PartialEq, Eq, Default, Debug)]
pub struct CarrierMap {
    map: BTreeMap<Simplex, Arc<Complex>>,
}

impl CarrierMap {
    /// Creates an empty carrier map.
    #[must_use]
    pub fn new() -> Self {
        CarrierMap::default()
    }

    /// Builds a carrier map over all simplices of `domain` from a function
    /// returning, for each simplex, the *facets* of its image subcomplex.
    pub fn from_fn<F>(domain: &Complex, mut image_facets: F) -> Self
    where
        F: FnMut(&Simplex) -> Vec<Simplex>,
    {
        let mut cm = CarrierMap::new();
        for s in domain.simplices() {
            cm.insert(s.clone(), Complex::from_facets(image_facets(s)));
        }
        cm
    }

    /// Sets the image subcomplex of `s`, returning the previous image if
    /// any.
    pub fn insert(&mut self, s: Simplex, image: Complex) -> Option<Complex> {
        self.map
            .insert(s, Arc::new(image))
            .map(|a| Arc::try_unwrap(a).unwrap_or_else(|a| (*a).clone()))
    }

    /// Sets the image subcomplex of `s` from a shared handle, avoiding a
    /// deep copy when the image is reused across simplices or maps.
    pub fn insert_shared(&mut self, s: Simplex, image: Arc<Complex>) -> Option<Arc<Complex>> {
        self.map.insert(s, image)
    }

    /// Mutable access to the image subcomplex of `s`, if assigned; a
    /// shared image is copied first, so other maps holding it are
    /// unaffected.
    pub fn image_mut(&mut self, s: &Simplex) -> Option<&mut Complex> {
        self.map.get_mut(s).map(Arc::make_mut)
    }

    /// The image subcomplex of `s`, if assigned.
    #[must_use]
    pub fn get(&self, s: &Simplex) -> Option<&Complex> {
        self.map.get(s).map(Arc::as_ref)
    }

    /// The shared handle to the image subcomplex of `s`, if assigned.
    #[must_use]
    pub fn get_shared(&self, s: &Simplex) -> Option<&Arc<Complex>> {
        self.map.get(s)
    }

    /// The image subcomplex of `s`.
    ///
    /// # Panics
    ///
    /// Panics if `s` has no assigned image; use [`CarrierMap::get`] for a
    /// fallible lookup.
    #[must_use]
    pub fn image_of(&self, s: &Simplex) -> &Complex {
        self.get(s)
            .unwrap_or_else(|| panic!("carrier map has no image for {s}")) // chromata-lint: allow(P1): totality on the domain is validated at construction; documented under # Panics
    }

    /// Iterator over `(simplex, image)` pairs, in simplex order.
    pub fn iter(&self) -> impl Iterator<Item = (&Simplex, &Complex)> + Clone {
        self.map.iter().map(|(s, k)| (s, k.as_ref()))
    }

    /// The domain simplices with assigned images.
    pub fn domain(&self) -> impl Iterator<Item = &Simplex> + Clone {
        self.map.keys()
    }

    /// The union of all image subcomplexes — the reachable part of the
    /// codomain (the paper assumes `O = ⋃_σ Δ(σ)`, §4).
    #[must_use]
    pub fn full_image(&self) -> Complex {
        let mut out = Complex::new();
        for k in self.map.values() {
            for s in k.facets() {
                out.add_simplex(s.clone());
            }
        }
        out
    }

    /// Whether `f(σ) ∈ Δ(σ)` would hold for `σ`'s image `t`: `t` is a
    /// simplex of the image subcomplex of `s`.
    #[must_use]
    pub fn carries(&self, s: &Simplex, t: &Simplex) -> bool {
        self.get(s).is_some_and(|k| k.contains(t))
    }

    /// Validates the carrier map against a *chromatic* domain: totality on
    /// all simplices of `domain`, non-emptiness, purity with matching
    /// dimension, color-set agreement of every image facet, and
    /// monotonicity.
    ///
    /// # Errors
    ///
    /// Returns the list of violations if validation fails.
    pub fn validate_chromatic(&self, domain: &Complex) -> Result<(), Vec<CarrierViolation>> {
        let mut errs = Vec::new();
        for s in domain.simplices() {
            let Some(img) = self.get(s) else {
                errs.push(CarrierViolation::MissingSimplex(s.clone()));
                continue;
            };
            if img.is_empty() {
                errs.push(CarrierViolation::EmptyImage(s.clone()));
                continue;
            }
            if !img.is_pure() || img.dimension() != Some(s.dimension()) {
                errs.push(CarrierViolation::NotPureSameDimension(s.clone()));
            }
            if img.facets().any(|t| t.colors() != s.colors()) {
                errs.push(CarrierViolation::ColorMismatch(s.clone()));
            }
        }
        // Monotonicity: it suffices to compare each simplex with its
        // codimension-1 faces.
        for s in domain.simplices() {
            let Some(img) = self.get(s) else { continue };
            for f in s.boundary_faces() {
                if let Some(fi) = self.get(&f) {
                    if !fi.is_subcomplex_of(img) {
                        errs.push(CarrierViolation::NotMonotonic {
                            smaller: f.clone(),
                            larger: s.clone(),
                        });
                    }
                }
            }
        }
        if errs.is_empty() {
            Ok(())
        } else {
            Err(errs)
        }
    }

    /// Composition with a second carrier map: `(Φ ∘ Δ)(σ)` is generated by
    /// `Φ(τ)` over all facets `τ` of `Δ(σ)`. Used to compose subdivision
    /// carriers (`Ch^{r+1} = Ch ∘ Ch^r`).
    ///
    /// Only the *facets* of each image are consulted: when `Φ` is monotone
    /// (every carrier map is), `Φ(τ') ⊆ Φ(τ)` for faces `τ' ⊆ τ`, so the
    /// union over facets already covers all simplices. For a facet missing
    /// from `Φ`, its proper faces are consulted as a fallback so that
    /// partially-defined maps still compose like before.
    #[must_use]
    pub fn then(&self, next: &CarrierMap) -> CarrierMap {
        let mut out = CarrierMap::new();
        for (s, img) in &self.map {
            let mut acc = Complex::new();
            for t in img.facets() {
                if let Some(k) = next.get(t) {
                    for facet in k.facets() {
                        acc.add_simplex(facet.clone());
                    }
                } else {
                    for f in t.proper_faces() {
                        if let Some(k) = next.get(&f) {
                            for facet in k.facets() {
                                acc.add_simplex(facet.clone());
                            }
                        }
                    }
                }
            }
            out.insert(s.clone(), acc);
        }
        out
    }

    /// Restriction of the carrier map to the simplices of `sub`.
    #[must_use]
    pub fn restricted_to(&self, sub: &Complex) -> CarrierMap {
        CarrierMap {
            map: self
                .map
                .iter()
                .filter(|(s, _)| sub.contains(s))
                .map(|(s, k)| (s.clone(), Arc::clone(k)))
                .collect(),
        }
    }

    /// The *carrier* of a vertex value under this map when used as a
    /// protocol-complex carrier: the unique minimal domain simplex whose
    /// image contains `v`, if one exists.
    #[must_use]
    pub fn minimal_carrier_of_vertex(&self, v: &Vertex) -> Option<&Simplex> {
        let vs = Simplex::vertex(v.clone());
        self.map
            .iter()
            .filter(|(_, img)| img.contains(&vs))
            .map(|(s, _)| s)
            .min_by_key(|s| (s.dimension(), (*s).clone()))
    }

    /// Number of domain simplices with assigned images.
    #[must_use]
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether no images are assigned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

impl Hash for CarrierMap {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_usize(self.map.len());
        for (s, k) in &self.map {
            s.hash(state);
            k.hash(state);
        }
    }
}

impl FromIterator<(Simplex, Complex)> for CarrierMap {
    fn from_iter<I: IntoIterator<Item = (Simplex, Complex)>>(iter: I) -> Self {
        CarrierMap {
            map: iter.into_iter().map(|(s, k)| (s, Arc::new(k))).collect(),
        }
    }
}

impl fmt::Display for CarrierMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CarrierMap({} simplices)", self.map.len())?;
        for (s, k) in &self.map {
            writeln!(f, "  {s} ↦ {} facets", k.facet_count())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(c: u8, x: i64) -> Vertex {
        Vertex::of(c, x)
    }

    /// Binary consensus for 2 processes, as a carrier map.
    fn consensus2() -> (Complex, CarrierMap) {
        let mut input = Complex::new();
        for a in 0..2 {
            for b in 0..2 {
                input.add_simplex(Simplex::from_iter([v(0, a), v(1, b)]));
            }
        }
        let delta = CarrierMap::from_fn(&input, |s| {
            let vals: Vec<i64> = s.iter().map(|u| u.value().as_int().unwrap()).collect();
            let mut out = Vec::new();
            for d in [0i64, 1] {
                if vals.contains(&d) {
                    out.push(Simplex::from_iter(
                        s.iter().map(|u| u.with_value(crate::value::Value::Int(d))),
                    ));
                }
            }
            out
        });
        (input, delta)
    }

    #[test]
    fn consensus_carrier_is_valid() {
        let (input, delta) = consensus2();
        delta.validate_chromatic(&input).expect("valid carrier map");
        // Mixed-input edge allows both decisions.
        let mixed = Simplex::from_iter([v(0, 0), v(1, 1)]);
        assert_eq!(delta.image_of(&mixed).facet_count(), 2);
        // Solo vertex allows only its own value.
        let solo = Simplex::vertex(v(0, 1));
        assert_eq!(delta.image_of(&solo).facet_count(), 1);
        assert!(delta.carries(&mixed, &Simplex::from_iter([v(0, 0), v(1, 0)])));
        assert!(!delta.carries(&mixed, &Simplex::from_iter([v(0, 0), v(1, 1)])));
    }

    #[test]
    fn missing_and_empty_images_detected() {
        let (input, mut delta) = consensus2();
        let solo = Simplex::vertex(v(0, 1));
        delta.insert(solo.clone(), Complex::new());
        let errs = delta.validate_chromatic(&input).unwrap_err();
        assert!(errs.contains(&CarrierViolation::EmptyImage(solo.clone())));
        let mut partial = CarrierMap::new();
        partial.insert(solo.clone(), Complex::from_facets([solo.clone()]));
        let errs = partial.validate_chromatic(&input).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, CarrierViolation::MissingSimplex(_))));
    }

    #[test]
    fn monotonicity_violation_detected() {
        let (input, mut delta) = consensus2();
        // Break monotonicity: P0 solo with input 0 "decides 7", which no
        // edge image contains.
        let solo = Simplex::vertex(v(0, 0));
        delta.insert(solo, Complex::from_facets([Simplex::vertex(v(0, 7))]));
        let errs = delta.validate_chromatic(&input).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, CarrierViolation::NotMonotonic { .. })));
    }

    #[test]
    fn color_mismatch_detected() {
        let input = Complex::from_facets([Simplex::vertex(v(0, 0))]);
        let mut delta = CarrierMap::new();
        delta.insert(
            Simplex::vertex(v(0, 0)),
            Complex::from_facets([Simplex::vertex(v(1, 0))]),
        );
        let errs = delta.validate_chromatic(&input).unwrap_err();
        assert!(errs
            .iter()
            .any(|e| matches!(e, CarrierViolation::ColorMismatch(_))));
    }

    #[test]
    fn full_image_and_restriction() {
        let (_input, delta) = consensus2();
        let img = delta.full_image();
        assert_eq!(img.vertex_count(), 4, "P0/P1 × values 0/1");
        let sub = Complex::from_facets([Simplex::vertex(v(0, 0))]);
        let r = delta.restricted_to(&sub);
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn minimal_carrier_of_vertex() {
        let (_, delta) = consensus2();
        let c = delta.minimal_carrier_of_vertex(&v(0, 1)).unwrap();
        assert_eq!(c, &Simplex::vertex(v(0, 1)));
        assert!(delta.minimal_carrier_of_vertex(&v(0, 9)).is_none());
    }

    #[test]
    fn composition_of_carriers() {
        // Δ: vertex ↦ vertex; Φ: that vertex ↦ another; composite reaches it.
        let a = Simplex::vertex(v(0, 0));
        let b = Simplex::vertex(v(0, 1));
        let c = Simplex::vertex(v(0, 2));
        let d1: CarrierMap = [(a.clone(), Complex::from_facets([b.clone()]))]
            .into_iter()
            .collect();
        let d2: CarrierMap = [(b.clone(), Complex::from_facets([c.clone()]))]
            .into_iter()
            .collect();
        let comp = d1.then(&d2);
        assert!(comp.carries(&a, &c));
    }

    #[test]
    fn shared_images_are_not_deep_copied() {
        let s0 = Simplex::vertex(v(0, 0));
        let s1 = Simplex::vertex(v(0, 1));
        let img = Arc::new(Complex::from_facets([Simplex::vertex(v(0, 9))]));
        let mut cm = CarrierMap::new();
        cm.insert_shared(s0.clone(), Arc::clone(&img));
        cm.insert_shared(s1.clone(), Arc::clone(&img));
        assert!(std::ptr::eq(
            cm.get(&s0).unwrap() as *const Complex,
            cm.get(&s1).unwrap() as *const Complex
        ));
        assert_eq!(cm.get_shared(&s0).map(Arc::as_ref), Some(img.as_ref()));
    }
}
