//! The expected verdict of every library task, taken from the paper and
//! from the task definitions — never from engine output — so that a
//! wrong answer counts as a failure even when every run agrees on it.

/// `(registry name, verdict)` for the 19 library tasks.
pub const VERDICTS: [(&str, &str); 19] = [
    // Each process outputs its input / a constant: trivially solvable.
    ("identity", "SOLVABLE"),
    ("constant", "SOLVABLE"),
    // Consensus is not wait-free solvable (FLP; Herlihy–Shavit).
    ("consensus", "UNSOLVABLE"),
    ("consensus-2", "UNSOLVABLE"),
    // Paper Fig. 1: majority consensus is unsolvable.
    ("majority", "UNSOLVABLE"),
    // Paper §6.1 (Fig. 2): the hourglass is unsolvable although its
    // output complex is contractible — the articulation-point obstruction.
    ("hourglass", "UNSOLVABLE"),
    // Paper §6.2 (Fig. 8): the pinwheel is unsolvable.
    ("pinwheel", "UNSOLVABLE"),
    // 2-set agreement among three processes is unsolvable
    // (Borowsky–Gafni, Herlihy–Shavit, Saks–Zaharoglou).
    ("2-set-agreement", "UNSOLVABLE"),
    // (2p−1)-renaming and 5-renaming for three processes are solvable.
    ("adaptive-renaming", "SOLVABLE"),
    ("renaming-5", "SOLVABLE"),
    // Test-and-set (leader election) has consensus number 2.
    ("leader-election", "UNSOLVABLE"),
    // Approximate agreement is wait-free solvable.
    ("approximate-agreement", "SOLVABLE"),
    // Loop agreement is solvable iff the loop is contractible in the
    // output complex (Herlihy–Rajsbaum): disk and sphere are simply
    // connected; the torus loop is essential; the projective-plane and
    // Klein-bottle torsion loops are non-contractible.
    ("loop-disk", "SOLVABLE"),
    ("loop-sphere", "SOLVABLE"),
    ("loop-torus", "UNSOLVABLE"),
    ("loop-rp2", "UNSOLVABLE"),
    ("loop-klein-torsion", "UNSOLVABLE"),
    // The doubled Klein-bottle loop is null-homologous but its
    // contractibility is beyond the decidable tiers (paper §7): the
    // registry documents the expected answer as UNKNOWN.
    ("loop-klein-squared", "UNKNOWN"),
    // Paper Fig. 3: every input facet's image contains the shared facet
    // g, so "always output g" is a decision map — solvable.
    ("fig3-example", "SOLVABLE"),
];

/// The expected verdict label of a library task.
pub fn verdict_of(name: &str) -> Option<&'static str> {
    VERDICTS.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
}
