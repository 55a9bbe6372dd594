//! A gallery of splitting runs: watch Theorem 4.3's elimination reshape
//! each library task's output complex, step by step.
//!
//! ```sh
//! cargo run --release --example splitting_gallery
//! ```

use chromata::{first_lap_of_facet, laps, split_once, SplitError};
use chromata_task::{canonicalize, library, Task};

fn main() {
    for t in [
        library::hourglass(),
        library::pinwheel(),
        library::leader_election(),
        library::majority_consensus(),
        library::renaming(3),
    ] {
        gallery(&t);
    }
}

fn gallery(task: &Task) {
    let mut current = canonicalize(task);
    println!("━━━ {} — splitting trace", task.name());
    println!(
        "{:>4}  {:>8} {:>8} {:>10}  split vertex (components)",
        "step", "vertices", "facets", "components"
    );
    let mut step = 0usize;
    print_row(step, &current, "—");
    let facets: Vec<_> = current.input().facets().cloned().collect();
    for sigma in facets {
        while let Some(lap) = first_lap_of_facet(&current, &sigma) {
            match split_once(&current, &lap) {
                Ok(next) => {
                    step += 1;
                    current = next;
                    print_row(
                        step,
                        &current,
                        &format!("{} ({})", lap.vertex, lap.component_count()),
                    );
                }
                Err(SplitError::Degenerate(x)) => {
                    println!("  degenerate at {x}: task unsolvable outright");
                    return;
                }
                Err(e) => {
                    println!("  split failed: {e}");
                    return;
                }
            }
        }
    }
    println!(
        "  final: link-connected = {}, residual LAPs = {}\n",
        current.is_link_connected(),
        laps(&current).len()
    );
}

fn print_row(step: usize, t: &Task, split: &str) {
    println!(
        "{:>4}  {:>8} {:>8} {:>10}  {}",
        step,
        t.output().vertex_count(),
        t.output().facet_count(),
        t.output().connected_components().len(),
        split
    );
}
