//! `chromabench`: the chromata benchmark.
//!
//! Drives one workload per process through the public API of the
//! workspace crates, checks every answer, and prints one JSON result
//! line as the last line of standard output:
//!
//! ```text
//! cargo run --release --manifest-path chromabench/Cargo.toml -- \
//!     --workload library-cold --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no spans recorded;
//! `--trace 1` is the separate traced run that reports per-layer
//! metrics and writes its spans to `.chromabench/trace-<workload>-<seed>.json`.
//! See `README.md` for every metric's definition.

mod expected;
mod library;
mod probe;
mod restart;
mod serve;
mod trace;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use chromata::{EvidenceChain, Verdict};
use chromata_cli::registry;
use chromata_task::Task;

/// Scratch directory (relative to the working directory) for cache
/// directories and trace files; removed or overwritten by every run.
const WORK_DIR: &str = ".chromabench";

/// Command-line arguments.
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("flag `{flag}` needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let seconds: u64 = seconds.ok_or("missing --seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds,
        trace: trace.ok_or("missing --trace")?,
    })
}

fn main() -> ExitCode {
    // The program reads these at first use; the benchmark measures the
    // defaults (256-entry stage caches, no cache directory).
    std::env::remove_var("CHROMATA_DECISION_CACHE_CAP");
    std::env::remove_var(chromata::CACHE_DIR_ENV);
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("chromabench: {e}");
            return ExitCode::from(2);
        }
    };
    let ctx = Ctx {
        seed: args.seed,
        budget: Duration::from_secs(args.seconds),
        trace_file: PathBuf::from(WORK_DIR)
            .join(format!("trace-{}-{}.json", args.workload, args.seed)),
    };
    eprintln!(
        "chromabench: workload {} seed {} seconds {} trace {} | {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        machine()
    );
    let result = match (args.workload.as_str(), args.trace) {
        ("library-cold", false) => library::run(&ctx),
        ("library-cold", true) => library::run_traced(&ctx),
        ("serve-mutants", false) => serve::run(&ctx),
        ("serve-mutants", true) => serve::run_traced(&ctx),
        ("restart", false) => restart::run(&ctx),
        ("restart", true) => restart::run_traced(&ctx),
        (other, _) => Err(format!(
            "unknown workload `{other}`; expected library-cold, serve-mutants or restart"
        )),
    };
    match result {
        Ok(report) => {
            println!("{}", report.to_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("chromabench: {e}");
            ExitCode::from(1)
        }
    }
}

/// What every workload needs from the command line.
pub struct Ctx {
    pub seed: u64,
    /// How long the measured phase runs.
    pub budget: Duration,
    /// Where a traced run writes its spans.
    pub trace_file: PathBuf,
}

impl Ctx {
    /// A per-run scratch directory under [`WORK_DIR`], emptied first.
    pub fn scratch_dir(&self, name: &str) -> Result<PathBuf, String> {
        let dir = PathBuf::from(WORK_DIR).join(format!("{name}-{}", std::process::id()));
        if dir.exists() {
            std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        }
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(dir)
    }
}

/// One named metric with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

/// The result line of one run.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_owned(),
            value,
            unit,
        });
    }

    /// Counts one checked operation; `ok == false` counts it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 10 {
                eprintln!("chromabench: FAILED: {}", what());
            }
        }
    }

    fn to_json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let correct = self.failed == 0 && self.attempted > 0 && finite;
        let mut metrics = String::new();
        for (i, m) in self.metrics.iter().enumerate() {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            // Display for f64 never uses exponent notation, so it is valid JSON.
            let _ = write!(
                metrics,
                "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.name, m.unit
            );
        }
        format!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        )
    }
}

/// CPU model, logical CPUs and build settings, for the log.
fn machine() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let cpus = std::thread::available_parallelism().map_or(1, usize::from);
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    format!(
        "cpu {cpu}; available_parallelism {cpus}; profile {profile}; features default (parallel)"
    )
}

/// Peak resident set size of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// xorshift64* — the benchmark's only source of randomness, seeded by
/// `--seed`, so one seed always yields the same inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x2545_f491_4f6c_dd1d | 1)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Times `f`, returning its result and the wall time in milliseconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let start = Instant::now();
    let out = std::hint::black_box(f());
    (out, start.elapsed().as_secs_f64() * 1e3)
}

pub fn verdict_label(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Solvable { .. } => "SOLVABLE",
        Verdict::Unsolvable { .. } => "UNSOLVABLE",
        Verdict::Unknown { .. } => "UNKNOWN",
    }
}

pub fn digest(evidence: &EvidenceChain) -> String {
    format!("{:016x}", evidence.deterministic_digest())
}

/// Deterministic work of the homology stage (full vertex assignments
/// checked), as recorded in an evidence chain.
pub fn assignments_checked(evidence: &EvidenceChain) -> u64 {
    evidence
        .stages
        .iter()
        .filter(|s| s.stage == "homology")
        .map(|s| s.work)
        .sum()
}

/// The library registry as `(name, task)` pairs in registry order (the
/// order `chromata batch` uses), after checking that it is exactly the
/// set the verdict table covers.
///
/// The order is fixed rather than seeded: `analyze_batch` hands each
/// thread a contiguous chunk, so reordering the library moves the batch
/// wall time by ±15% and would make runs on different seeds measure
/// different work.
pub fn library() -> Result<Vec<(&'static str, Task)>, String> {
    let mut names: Vec<&str> = registry::entries().iter().map(|e| e.name).collect();
    let mut table: Vec<&str> = expected::VERDICTS.iter().map(|(n, _)| *n).collect();
    names.sort_unstable();
    table.sort_unstable();
    if names != table {
        return Err(format!(
            "the registry {names:?} no longer matches the expected-verdict table {table:?}"
        ));
    }
    Ok(registry::entries()
        .iter()
        .map(|e| (e.name, e.build()))
        .collect())
}

/// One inline `analyze` request line for `task`, as a client sends it.
pub fn request_line(task: &Task) -> Result<String, String> {
    let body =
        serde_json::to_string(task).map_err(|e| format!("serialize {}: {e}", task.name()))?;
    Ok(format!("{{\"op\":\"analyze\",\"task\":{body}}}"))
}

/// Runs `setup` `n` times and returns the last result with the median
/// set-up time in seconds; earlier results are dropped by `discard`.
pub fn repeated_setup<T>(
    n: usize,
    mut setup: impl FnMut() -> Result<T, String>,
    mut discard: impl FnMut(T),
) -> Result<(T, f64), String> {
    let mut times = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        if let Some(old) = last.take() {
            discard(old);
        }
        let start = Instant::now();
        last = Some(setup()?);
        times.push(start.elapsed().as_secs_f64());
    }
    let last = last.ok_or("set-up ran zero times")?;
    Ok((last, median(&times)))
}
