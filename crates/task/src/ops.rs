//! Task combinators.
//!
//! Operations deriving new tasks from existing ones; the workhorse is
//! [`restricted_to_participants`], which produces the sub-task seen by a
//! subset of the processes — solvability of the whole task implies
//! solvability of every restriction (run the same protocol), giving a
//! cheap necessary condition that the test suite cross-checks against the
//! two-process decider.

use chromata_topology::{CarrierMap, ColorSet, Complex, Simplex, Value, Vertex};

use crate::task::Task;

/// The sub-task induced by a set of participating colors: input simplices
/// whose colors lie in `participants`, with `Δ` restricted accordingly.
///
/// # Panics
///
/// Panics if no input simplex survives the restriction (the participant
/// set shares no process with the task).
///
/// # Examples
///
/// ```
/// use chromata_task::{library::consensus, restricted_to_participants};
/// use chromata_topology::{Color, ColorSet};
///
/// let two: ColorSet = [Color::new(0), Color::new(2)].into_iter().collect();
/// let sub = restricted_to_participants(&consensus(3), two);
/// assert_eq!(sub.process_count(), 2);
/// assert_eq!(sub.input().facet_count(), 4); // binary inputs for two processes
/// ```
#[must_use]
pub fn restricted_to_participants(task: &Task, participants: ColorSet) -> Task {
    let input = Complex::from_facets(
        task.input()
            .simplices()
            .filter(|s| s.colors().is_subset_of(participants))
            .cloned(),
    );
    assert!(
        !input.is_empty(),
        "no input simplex has colors within {participants}"
    );
    let delta: CarrierMap = task
        .delta()
        .iter()
        .filter(|(s, _)| input.contains(s))
        .map(|(s, img)| (s.clone(), img.clone()))
        .collect();
    let output = delta.full_image();
    Task::new(
        format!("{}|{participants}", task.name()),
        input,
        output,
        delta,
    )
    .expect("restriction of a valid task is valid") // chromata-lint: allow(P1): restricting a validated task to a sub-complex preserves validity
}

/// One seeded structural mutation applied to a task.
///
/// Every kind is re-validated through [`Task::new`]; a kind that cannot
/// produce a valid mutant for the given task/draw returns `None` from
/// [`mutate_with`] rather than an invalid task.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum MutationKind {
    /// Flip one entry of the decision map: enlarge or shrink the image of
    /// one top-level input facet by one output facet.
    FlipEntry,
    /// Drop one input facet (with its carrier entries); the output shrinks
    /// to the remaining image.
    DropSimplex,
    /// Rename one output value to a fresh integer, substituting it across
    /// the output complex and every carrier image.
    RenameValue,
}

/// All mutation kinds, in the order the seeded driver cycles through them.
pub const MUTATION_KINDS: [MutationKind; 3] = [
    MutationKind::FlipEntry,
    MutationKind::DropSimplex,
    MutationKind::RenameValue,
];

/// xorshift64* step — the same tiny deterministic generator the chaos
/// fault schedule uses; no OS entropy, so a seed fully determines the
/// campaign.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state | 1;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_f491_4f6c_dd1d)
}

fn cloned_delta(task: &Task) -> CarrierMap {
    task.delta()
        .iter()
        .map(|(s, img)| (s.clone(), img.clone()))
        .collect()
}

fn flip_entry(task: &Task, draw: u64, name: String) -> Option<Task> {
    let facets: Vec<&Simplex> = task.input().facets().collect();
    if facets.is_empty() {
        return None;
    }
    let tau = facets[usize::try_from(draw).unwrap_or(usize::MAX) % facets.len()]; // chromata-lint: allow(P3): index is reduced modulo the length of a vec checked non-empty above
    let image = task.delta().image_of(tau);
    let sub_draw = usize::try_from(draw >> 8).unwrap_or(usize::MAX);
    let additions: Vec<&Simplex> = task
        .output()
        .facets()
        .filter(|g| g.colors() == tau.colors() && !image.contains(g))
        .collect();
    let mut delta = cloned_delta(task);
    if additions.is_empty() {
        // Shrink: drop one facet from the image (keeping at least one) and
        // let validation decide whether the result is still a carrier map.
        let img_facets: Vec<&Simplex> = image.facets().collect();
        if img_facets.len() < 2 {
            return None;
        }
        let dropped = sub_draw % img_facets.len();
        let kept = img_facets
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != dropped)
            .map(|(_, g)| (*g).clone());
        delta.insert(tau.clone(), Complex::from_facets(kept));
    } else {
        let g = additions[sub_draw % additions.len()]; // chromata-lint: allow(P3): index is reduced modulo the length of a vec checked non-empty in this branch
        let enlarged = Complex::from_facets(image.facets().cloned().chain([g.clone()]));
        delta.insert(tau.clone(), enlarged);
    }
    let output = delta.full_image();
    Task::new(name, task.input().clone(), output, delta).ok()
}

fn drop_simplex(task: &Task, draw: u64, name: String) -> Option<Task> {
    let facets: Vec<&Simplex> = task.input().facets().collect();
    if facets.len() < 2 {
        return None;
    }
    let dropped = usize::try_from(draw).unwrap_or(usize::MAX) % facets.len();
    let input = Complex::from_facets(
        facets
            .iter()
            .enumerate()
            .filter(|(i, _)| *i != dropped)
            .map(|(_, s)| (*s).clone()),
    );
    let delta = task.delta().restricted_to(&input);
    let output = delta.full_image();
    Task::new(name, input, output, delta).ok()
}

fn rename_value(task: &Task, draw: u64, name: String) -> Option<Task> {
    let outs: Vec<&Vertex> = task.output().vertices().collect();
    if outs.is_empty() {
        return None;
    }
    let w = outs[usize::try_from(draw).unwrap_or(usize::MAX) % outs.len()].clone(); // chromata-lint: allow(P3): index is reduced modulo the length of a vec checked non-empty above
    let mut salt = draw >> 8;
    let replacement = loop {
        let cand = Vertex::new(
            w.color(),
            Value::Int(1_000_000 + i64::try_from(salt % 100_000).unwrap_or(0)),
        );
        if !task.output().contains_vertex(&cand) {
            break cand;
        }
        salt += 1;
    };
    let subst = |s: &Simplex| -> Simplex {
        if s.iter().any(|v| *v == w) {
            s.substituted(&w, replacement.clone())
        } else {
            s.clone()
        }
    };
    let output = Complex::from_facets(task.output().facets().map(&subst));
    let delta: CarrierMap = task
        .delta()
        .iter()
        .map(|(s, img)| (s.clone(), Complex::from_facets(img.facets().map(&subst))))
        .collect();
    Task::new(name, task.input().clone(), output, delta).ok()
}

/// Applies one mutation of the given kind, deriving all choices from
/// `draw`. Returns `None` when the kind cannot yield a valid mutant here
/// (e.g. dropping a facet from a single-facet input, or a shrink that
/// breaks monotonicity) — the result is always re-validated by
/// [`Task::new`], never constructed unchecked.
#[must_use]
pub fn mutate_with(task: &Task, kind: MutationKind, draw: u64, name: &str) -> Option<Task> {
    match kind {
        MutationKind::FlipEntry => flip_entry(task, draw, name.to_owned()),
        MutationKind::DropSimplex => drop_simplex(task, draw, name.to_owned()),
        MutationKind::RenameValue => rename_value(task, draw, name.to_owned()),
    }
}

/// The `index`-th seeded mutant of a task: cycles through mutation kinds
/// with bounded re-rolls until one validates, falling back to a value
/// rename (which succeeds on any task with a nonempty output). The mutant
/// is named `"{name}#m{index}"`, and `(seed, index)` fully determines it.
#[must_use]
pub fn mutate_task(task: &Task, seed: u64, index: u64) -> Task {
    let mut state = seed ^ index.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0xd6e8_feb8_6659_fd93;
    let name = format!("{}#m{index}", task.name());
    for _ in 0..8 {
        let draw = xorshift(&mut state);
        let kind = MUTATION_KINDS[usize::try_from(draw % 3).unwrap_or(0)]; // chromata-lint: allow(P3): index is reduced modulo the fixed array length
        if let Some(mutant) = mutate_with(task, kind, xorshift(&mut state), &name) {
            return mutant;
        }
    }
    let fallback = xorshift(&mut state);
    mutate_with(task, MutationKind::RenameValue, fallback, &name).unwrap_or_else(|| {
        Task::new(
            name,
            task.input().clone(),
            task.output().clone(),
            cloned_delta(task),
        )
        .expect("clone of a valid task is valid") // chromata-lint: allow(P1): rebuilding a validated task from its own parts preserves validity
    })
}

/// All two-process restrictions of a three-process task, one per pair of
/// colors present in the input complex.
#[must_use]
pub fn two_process_restrictions(task: &Task) -> Vec<Task> {
    let colors: Vec<_> = task.input().colors().iter().collect();
    let mut out = Vec::new();
    for (i, &a) in colors.iter().enumerate() {
        // chromata-lint: allow(P3): `i` enumerates `colors`, so
        // `i + 1 <= len` and the range slice cannot be out of bounds
        for &b in &colors[i + 1..] {
            let pair: ColorSet = [a, b].into_iter().collect();
            out.push(restricted_to_participants(task, pair));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library::{consensus, hourglass, identity_task, two_set_agreement};
    use chromata_topology::Color;

    fn pair(a: u8, b: u8) -> ColorSet {
        [Color::new(a), Color::new(b)].into_iter().collect()
    }

    #[test]
    fn restriction_shapes() {
        let t = hourglass();
        let sub = restricted_to_participants(&t, pair(0, 1));
        assert_eq!(sub.process_count(), 2);
        assert_eq!(sub.input().facet_count(), 1);
        // Δ(edge) is the subdivided path of the hourglass.
        let e = sub.input().facets().next().unwrap().clone();
        assert_eq!(sub.delta().image_of(&e).facet_count(), 3);
    }

    #[test]
    fn restriction_is_validated() {
        for t in [identity_task(3), consensus(3), two_set_agreement()] {
            for sub in two_process_restrictions(&t) {
                sub.delta()
                    .validate_chromatic(sub.input())
                    .expect("restriction is a valid carrier map");
                assert_eq!(sub.process_count(), 2, "{}", sub.name());
            }
        }
    }

    #[test]
    fn three_pairs_for_three_processes() {
        assert_eq!(two_process_restrictions(&consensus(3)).len(), 3);
    }

    #[test]
    #[should_panic(expected = "no input simplex")]
    fn empty_restriction_rejected() {
        let t = identity_task(3);
        let far: ColorSet = [Color::new(7)].into_iter().collect();
        let _ = restricted_to_participants(&t, far);
    }

    #[test]
    fn mutants_are_deterministic_and_named() {
        let t = consensus(3);
        let a = mutate_task(&t, 42, 7);
        let b = mutate_task(&t, 42, 7);
        assert_eq!(a, b);
        assert_eq!(a.name(), "consensus-3#m7");
        assert_ne!(mutate_task(&t, 42, 8), a);
    }

    #[test]
    fn every_mutation_kind_validates_or_declines() {
        for t in [
            identity_task(3),
            consensus(3),
            two_set_agreement(),
            hourglass(),
        ] {
            for kind in MUTATION_KINDS {
                for draw in [0u64, 1, 17, 0xdead_beef, u64::MAX] {
                    if let Some(m) = mutate_with(&t, kind, draw, "m") {
                        m.delta()
                            .validate_chromatic(m.input())
                            .expect("mutant carrier map is valid");
                        assert!(!m.input().is_empty());
                    }
                }
            }
        }
    }

    mod prop {
        use super::*;
        use proptest::prelude::*;

        fn kinds() -> impl Strategy<Value = MutationKind> {
            prop_oneof![
                Just(MutationKind::FlipEntry),
                Just(MutationKind::DropSimplex),
                Just(MutationKind::RenameValue),
            ]
        }

        fn wide(hi: u32, lo: u32) -> u64 {
            (u64::from(hi) << 32) | u64::from(lo)
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            #[test]
            fn mutate_with_always_validates(kind in kinds(), hi in 0u32.., lo in 0u32..) {
                let draw = wide(hi, lo);
                for t in [identity_task(3), consensus(3), two_set_agreement()] {
                    if let Some(m) = mutate_with(&t, kind, draw, "p") {
                        prop_assert!(m.delta().validate_chromatic(m.input()).is_ok());
                        prop_assert!(!m.input().is_empty());
                    }
                }
            }

            #[test]
            fn mutate_task_is_total_and_valid(hi in 0u32.., lo in 0u32.., index in 0u32..512) {
                let t = two_set_agreement();
                let m = mutate_task(&t, wide(hi, lo), u64::from(index));
                prop_assert!(m.delta().validate_chromatic(m.input()).is_ok());
                prop_assert_eq!(m.name(), format!("{}#m{index}", t.name()));
            }
        }
    }
}
