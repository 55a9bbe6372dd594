//! Distributed tasks `(I, O, Δ)`, canonical forms and a library of the
//! paper's example tasks.
//!
//! This crate implements §2.3 and §3 of *"Solvability Characterization for
//! General Three-Process Tasks"* (PODC 2025):
//!
//! * [`Task`] — validated task triples with facet-level and explicit
//!   constructors;
//! * [`canonicalize`] / [`is_canonical`] — the canonical form `T*`
//!   (Theorem 3.1) in which every output vertex remembers its input;
//! * [`library`] — consensus, 2-set agreement, majority consensus (Fig. 1),
//!   the hourglass (Fig. 2), the pinwheel (Fig. 8), loop agreement on stock
//!   surfaces, and trivial control tasks.
//!
//! # Example
//!
//! ```
//! use chromata_task::{canonicalize, is_canonical, library::hourglass};
//!
//! let t = hourglass();
//! assert!(!t.is_link_connected()); // the pinch vertex is a LAP
//! let c = canonicalize(&t);
//! assert!(is_canonical(&c));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod canonical;
pub mod library;
mod ops;
mod serde_impls;
mod task;

pub use canonical::{
    canonical_decision, canonical_preimage, canonicalize, is_canonical, project_canonical_simplex,
};
pub use ops::{
    mutate_task, mutate_with, restricted_to_participants, two_process_restrictions, MutationKind,
    MUTATION_KINDS,
};
pub use task::{Task, TaskError};
