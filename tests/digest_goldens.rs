//! Pinned evidence digests: the verdict label and `deterministic_digest`
//! of every registry task, plus one combined FNV-1a over the digests of a
//! seeded `mutate_task` stream.
//!
//! The values were taken from `chromata batch --digests` before the
//! π1/H1 tiers were rewritten (single Tietze pass per component, sparse
//! unit-pivot feasibility). Any change here is a change of verdict or
//! evidence and needs a deliberate, versioned digest re-base.
//!
//! ```text
//! cargo test -p chromata --test digest_goldens
//! ```

use chromata::{analyze, analyze_batch, PipelineOptions, Verdict};
use chromata_task::library as lib;
use chromata_task::{mutate_task, Task};

/// The CLI registry, in registry order, with the pinned label and digest.
fn library() -> Vec<(&'static str, Task, &'static str, u64)> {
    vec![
        (
            "identity",
            lib::identity_task(3),
            "SOLVABLE",
            0x68cd_acef_adc9_0c30,
        ),
        (
            "constant",
            lib::constant_task(3),
            "SOLVABLE",
            0x68cd_acef_adc9_0c30,
        ),
        (
            "consensus",
            lib::consensus(3),
            "UNSOLVABLE",
            0x63a4_ed5e_d432_5543,
        ),
        (
            "consensus-2",
            lib::two_process_consensus(),
            "UNSOLVABLE",
            0x4554_fe8b_2d1c_6316,
        ),
        (
            "majority",
            lib::majority_consensus(),
            "UNSOLVABLE",
            0xe75a_7285_f5ae_7893,
        ),
        (
            "hourglass",
            lib::hourglass(),
            "UNSOLVABLE",
            0x4270_7054_980e_8d6a,
        ),
        (
            "pinwheel",
            lib::pinwheel(),
            "UNSOLVABLE",
            0x59c3_8bc6_ce8e_ee36,
        ),
        (
            "2-set-agreement",
            lib::two_set_agreement(),
            "UNSOLVABLE",
            0x53b3_8906_d18f_8df9,
        ),
        (
            "adaptive-renaming",
            lib::adaptive_renaming(),
            "SOLVABLE",
            0x4230_a561_0250_6579,
        ),
        (
            "renaming-5",
            lib::renaming(5),
            "SOLVABLE",
            0x4230_a561_0250_6579,
        ),
        (
            "leader-election",
            lib::leader_election(),
            "UNSOLVABLE",
            0x3d4b_afda_aabc_8f50,
        ),
        (
            "approximate-agreement",
            lib::approximate_agreement(3),
            "SOLVABLE",
            0x4731_1f2c_55bd_a7df,
        ),
        (
            "loop-disk",
            lib::loop_agreement("loop-disk", lib::disk_complex()),
            "SOLVABLE",
            0x7a45_67e8_495b_7ef8,
        ),
        (
            "loop-sphere",
            lib::loop_agreement("loop-sphere", lib::sphere_complex()),
            "SOLVABLE",
            0xaa07_3b66_3cc6_bdb5,
        ),
        (
            "loop-torus",
            lib::loop_agreement("loop-torus", lib::torus_complex()),
            "UNSOLVABLE",
            0x1d5f_5151_da1b_42f2,
        ),
        (
            "loop-rp2",
            lib::loop_agreement("loop-rp2", lib::projective_plane_complex()),
            "UNSOLVABLE",
            0xcdb9_f3c7_e73f_6829,
        ),
        (
            "loop-klein-torsion",
            lib::loop_agreement("loop-klein-torsion", lib::klein_bottle_single_loop()),
            "UNSOLVABLE",
            0xd1cb_f03f_027e_2ed6,
        ),
        (
            "loop-klein-squared",
            lib::loop_agreement("loop-klein-squared", lib::klein_bottle_doubled_loop()),
            "UNKNOWN",
            0x3fa3_df62_9c29_f4b6,
        ),
        (
            "fig3-example",
            lib::simple_example_task(),
            "SOLVABLE",
            0x87a1_bc99_e351_64ef,
        ),
    ]
}

fn label(v: &Verdict) -> &'static str {
    match v {
        Verdict::Solvable { .. } => "SOLVABLE",
        Verdict::Unsolvable { .. } => "UNSOLVABLE",
        Verdict::Unknown { .. } => "UNKNOWN",
    }
}

/// FNV-1a 64 over the little-endian bytes of each value, in order.
fn fnv1a(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in values {
        for byte in v.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

#[test]
fn library_verdicts_and_digests_are_pinned() {
    let lib = library();
    let tasks: Vec<Task> = lib.iter().map(|(_, t, _, _)| t.clone()).collect();
    let analyses = analyze_batch(&tasks, PipelineOptions::default());
    let mut drift = Vec::new();
    for ((name, _, want_label, want_digest), a) in lib.iter().zip(&analyses) {
        let (got_label, got_digest) = (label(&a.verdict), a.evidence.deterministic_digest());
        if (got_label, got_digest) != (*want_label, *want_digest) {
            drift.push(format!(
                "{name}: want {want_label} {want_digest:016x}, got {got_label} {got_digest:016x}"
            ));
        }
    }
    assert!(
        drift.is_empty(),
        "library digests drifted:\n{}",
        drift.join("\n")
    );
}

/// Seed and mutants per base of the pinned mutant stream.
const STREAM_SEED: u64 = 1;
const STREAM_MUTANTS: u64 = 2;
/// The combined FNV-1a over the stream's digests, base-major.
const STREAM_FNV: u64 = 0xccce_af56_1bef_6728;

#[test]
fn seeded_mutant_stream_digest_is_pinned() {
    let digests: Vec<u64> = library()
        .iter()
        .flat_map(|(_, base, _, _)| {
            (0..STREAM_MUTANTS).map(move |k| {
                let mutant = mutate_task(base, STREAM_SEED, k);
                analyze(&mutant, PipelineOptions::default())
                    .evidence
                    .deterministic_digest()
            })
        })
        .collect();
    assert_eq!(
        fnv1a(digests.iter().copied()),
        STREAM_FNV,
        "mutant-stream digests drifted: {digests:016x?}"
    );
}
