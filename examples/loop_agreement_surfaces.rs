//! Loop agreement on stock surfaces (paper, §1.3 and §7).
//!
//! Loop agreement reduces solvability to loop contractibility — the
//! undecidable-in-general residue of the characterization. On the stock
//! surfaces the tiers are exact: sphere and disk loops contract (tasks
//! solvable); the torus loop is essential in `H₁ = ℤ²` and the projective
//! plane loop is 2-torsion in `H₁ = ℤ/2` (tasks unsolvable).
//!
//! ```sh
//! cargo run --example loop_agreement_surfaces
//! ```

use chromata::algebra::{homology, ChainComplex};
use chromata::{analyze, PipelineOptions};
use chromata_task::library::{
    disk_complex, klein_bottle_doubled_loop, klein_bottle_single_loop, loop_agreement,
    projective_plane_complex, sphere_complex, torus_complex, LoopSpec,
};
use chromata_topology::{Color, Vertex};

fn main() {
    for (name, spec) in [
        ("disk", disk_complex()),
        ("sphere", sphere_complex()),
        ("torus", torus_complex()),
        ("projective-plane", projective_plane_complex()),
        ("klein-torsion-loop", klein_bottle_single_loop()),
        ("klein-doubled-loop", klein_bottle_doubled_loop()),
    ] {
        describe(name, &spec);
        let task = loop_agreement(name, spec);
        let verdict = analyze(&task, PipelineOptions::default()).verdict;
        println!("  loop agreement verdict: {verdict:?}\n");
    }
}

fn describe(name: &str, spec: &LoopSpec) {
    let h = homology(&spec.complex);
    println!(
        "━━━ {name}: {} vertices, {} triangles; H = (b0={}, b1={}, b2={}, torsion {:?})",
        spec.complex.vertex_count(),
        spec.complex.simplices_of_dim(2).count(),
        h.betti0,
        h.betti1,
        h.betti2,
        h.torsion1
    );
    let cc = ChainComplex::new(&spec.complex);
    let walk: Vec<Vertex> = spec
        .loop_walk()
        .iter()
        .map(|v| Vertex::new(Color::new(0), v.clone()))
        .collect();
    let chain = cc.walk_to_chain(&walk).expect("loop follows edges");
    println!(
        "  distinguished loop {:?}: cycle={}, null-homologous={}",
        spec.loop_walk()
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>(),
        cc.is_cycle(&chain),
        cc.is_boundary(&chain)
            .expect("a surface's boundary system stays within checked arithmetic")
    );
}
