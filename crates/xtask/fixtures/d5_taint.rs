// Fixture: rule D5 — determinism taint reaching a digest root. The
// roots here are `deterministic_digest` and the helpers it calls; the
// sources hide behind a `use ... as` alias (invisible to token-local
// D2 until the alias table resolves it) and behind two call hops.

use std::collections::HashMap as Table;
use std::time::Instant as Clock;

pub fn deterministic_digest(seed: u64) -> u64 {
    mix(seed)
}

fn mix(seed: u64) -> u64 {
    seed ^ salt() ^ jitter() ^ order_bits()
}

fn salt() -> u64 {
    let t = Clock::now(); //~ D2 D5
    drop(t);
    0
}

fn jitter() -> u64 {
    let r = thread_rng(); //~ D5
    drop(r);
    0
}

fn order_bits() -> u64 {
    let m = Table::<u64, u64>::new(); //~ D5
    m.len() as u64
}

// Not reachable from any determinism root: token-local D2 still fires,
// but no chain ties it to a digest, so D5 stays quiet.
pub fn unrooted_probe() -> u64 {
    let t = Clock::now(); //~ D2
    drop(t);
    1
}

// `Engine::analyze` is a determinism root by name: a clock read in its
// callee is tainted although no digest function is on the chain.
pub struct Engine;

impl Engine {
    pub fn analyze(&self) -> u64 {
        stamp()
    }
}

fn stamp() -> u64 {
    let t = std::time::SystemTime::now(); //~ D2 D5
    drop(t);
    2
}
