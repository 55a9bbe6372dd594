//! `serve-mutants`: an in-process `Server` on loopback, driven by two
//! closed-loop clients (each waits for its reply, like `chromata
//! request` and the chaos driver) with the shipped one-connection-per-
//! request client.
//!
//! Requests carry seeded `mutate_task` mutants of ten small registry
//! tasks ([`BASE_NAMES`]) inline. The mutant pool is larger than the 256-entry
//! default stage-cache capacity, and about half of the requests repeat
//! an earlier mutant, skewed towards the first ones drawn, so cache
//! policy, wire parsing and connections carry the load rather than the
//! engine.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use chromata::{analyze_batch, clear_stage_caches, PipelineOptions};
use chromata_cli::registry;
use chromata_cli::serve::{request_line, Server};
use chromata_task::{mutate_task, Task};

use crate::probe::{self, field, Layers, ServeSample, REQUEST_TIMEOUT_SECS};
use crate::{
    assignments_checked, digest, median, peak_rss_mb, repeated_setup, verdict_label, Ctx, Report,
    Rng,
};

/// Registry tasks that seed the mutants: the ten non-surface tasks with
/// the fewest output facets, except majority consensus. A cold majority
/// mutant costs 150–700 ms (its 42-step split) against 0.2–10 ms for
/// every other base, so it alone would set the workload's time and make
/// it swing with the seed.
const BASE_NAMES: [&str; 10] = [
    "identity",
    "constant",
    "consensus",
    "consensus-2",
    "fig3-example",
    "leader-election",
    "hourglass",
    "pinwheel",
    "2-set-agreement",
    "approximate-agreement",
];
const BASES: usize = BASE_NAMES.len();
/// Mutants drawn per base: a pool of 600, over twice the cache capacity.
const MUTANTS_PER_BASE: usize = 60;
/// Requests per pass.
const STREAM_LEN: usize = 1200;
/// Share of requests that introduce a mutant not requested before.
const NEW_SHARE: f64 = 0.5;
/// Closed-loop clients (the machine's core count).
const CLIENTS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Passes every untraced run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// One pass's request stream.
struct Inputs {
    /// Request line per pool entry that the stream uses.
    lines: Vec<String>,
    tasks: Vec<Task>,
    /// Pool index of each request, in send order.
    stream: Vec<usize>,
}

/// What an in-process `analyze` answers for each pool entry.
struct Oracle {
    /// `(verdict label, evidence digest)` per pool entry.
    answers: Vec<(&'static str, String)>,
    assignments: u64,
}

impl Inputs {
    fn build(seed: u64) -> Result<Inputs, String> {
        let bases: Vec<Task> = BASE_NAMES
            .iter()
            .map(|name| registry::find(name).ok_or_else(|| format!("no library task `{name}`")))
            .collect::<Result<_, _>>()?;

        let mut rng = Rng::new(seed);
        let mut stream = Vec::with_capacity(STREAM_LEN);
        let mut fresh = 0usize;
        for _ in 0..STREAM_LEN {
            if fresh == 0 || (fresh < BASES * MUTANTS_PER_BASE && rng.unit() < NEW_SHARE) {
                stream.push(fresh);
                fresh += 1;
            } else {
                // Popularity skew: earlier mutants are repeated more.
                let u = rng.unit();
                stream.push(((fresh as f64) * u * u) as usize);
            }
        }

        // Pool entry i is the (i / BASES)-th mutant of base i % BASES.
        let tasks: Vec<Task> = (0..fresh)
            .map(|i| {
                let base = &bases[i % BASES];
                mutate_task(base, seed, (i / BASES) as u64)
            })
            .collect();
        let lines = tasks
            .iter()
            .map(crate::request_line)
            .collect::<Result<_, _>>()?;
        Ok(Inputs {
            lines,
            tasks,
            stream,
        })
    }
}

impl Oracle {
    /// Decides every pool entry in process, on a cold store. Part of the
    /// benchmark's checking, not of the set-up it times.
    fn compute(inputs: &Inputs) -> Oracle {
        clear_stage_caches();
        let analyses = analyze_batch(&inputs.tasks, PipelineOptions::default());
        Oracle {
            answers: analyses
                .iter()
                .map(|a| (verdict_label(&a.verdict), digest(&a.evidence)))
                .collect(),
            assignments: analyses
                .iter()
                .map(|a| assignments_checked(&a.evidence))
                .sum(),
        }
    }

    /// Checks the response to request `req` of the stream.
    fn check(
        &self,
        inputs: &Inputs,
        req: usize,
        response: &Result<String, String>,
        report: &mut Report,
    ) {
        let i = inputs.stream[req];
        let (want, want_digest) = &self.answers[i];
        let (got, got_digest) = match response {
            Ok(r) => (field(r, "verdict"), field(r, "evidence_digest")),
            Err(_) => (None, None),
        };
        report.check(
            got.as_deref() == Some(*want) && got_digest.as_ref() == Some(want_digest),
            || {
                format!(
                    "request {req} ({}): want {want} {want_digest}, got {response:?}",
                    inputs.tasks[i].name()
                )
            },
        );
    }
}

/// Sends the whole stream with `CLIENTS` closed-loop clients; `send`
/// performs one request. Returns results in stream order.
fn drive<T: Send>(stream_len: usize, send: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let mut results: Vec<(usize, T)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..CLIENTS)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let req = next.fetch_add(1, Ordering::Relaxed);
                        if req >= stream_len {
                            return out;
                        }
                        out.push((req, send(req)));
                    }
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("a client thread panicked"))
            .collect()
    });
    results.sort_by_key(|(req, _)| *req);
    results.into_iter().map(|(_, r)| r).collect()
}

/// One untraced request: round-trip time in ms and the response.
fn send(addr: &str, line: &str) -> (f64, Result<String, String>) {
    let start = Instant::now();
    let response = request_line(addr, line, REQUEST_TIMEOUT_SECS).map_err(|e| e.0);
    (start.elapsed().as_secs_f64() * 1e3, response)
}

fn setup(seed: u64) -> Result<(Inputs, Server), String> {
    let inputs = Inputs::build(seed)?;
    let server = probe::start_server()?;
    Ok((inputs, server))
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let ((inputs, server), setup_s) = repeated_setup(
        SETUPS,
        || setup(ctx.seed),
        |(_, s)| {
            probe::stop_server(s);
        },
    )?;
    let addr = server.local_addr().to_string();
    let oracle = Oracle::compute(&inputs);
    let mut round_trips = Vec::new();
    let mut pass_rates = Vec::new();
    let start = Instant::now();
    let mut passes = 0;
    while passes < MIN_PASSES || start.elapsed() < ctx.budget {
        clear_stage_caches();
        let pass_start = Instant::now();
        let results = drive(inputs.stream.len(), |req| {
            send(&addr, &inputs.lines[inputs.stream[req]])
        });
        pass_rates.push(results.len() as f64 / pass_start.elapsed().as_secs_f64());
        for (req, (ms, response)) in results.into_iter().enumerate() {
            oracle.check(&inputs, req, &response, &mut report);
            round_trips.push(ms);
        }
        passes += 1;
    }
    probe::stop_server(server);

    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("op_ms.p50", median(&round_trips), "ms");
    eprintln!("chromabench: pass req/s {pass_rates:.0?}");
    report.metric("ops_per_s", median(&pass_rates), "1/s");
    Ok(report)
}

pub fn run_traced(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (inputs, server) = setup(ctx.seed)?;
    let addr = server.local_addr().to_string();
    let oracle = Oracle::compute(&inputs);
    let dir = ctx.scratch_dir("probe")?;
    // Distinct mutants in first-request order, for the engine probe.
    let mut seen = vec![false; inputs.tasks.len()];
    let distinct: Vec<&Task> = inputs
        .stream
        .iter()
        .filter(|&&i| !std::mem::replace(&mut seen[i], true))
        .map(|&i| &inputs.tasks[i])
        .collect();
    let request_bytes = inputs
        .stream
        .iter()
        .map(|&i| inputs.lines[i].len())
        .sum::<usize>() as f64
        / inputs.stream.len() as f64;
    let mut layers = Layers::new();
    layers
        .counters
        .set("continuous.assignments_checked", oracle.assignments as f64);
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed() < ctx.budget {
        clear_stage_caches();
        for (req, (ms, response)) in drive(inputs.stream.len(), |req| {
            send(&addr, &inputs.lines[inputs.stream[req]])
        })
        .into_iter()
        .enumerate()
        {
            oracle.check(&inputs, req, &response, &mut report);
            layers.untraced_op_ms.push(ms);
        }

        clear_stage_caches();
        let results = drive(inputs.stream.len(), |req| {
            layers.round_trip(pass, req as u64, &addr, &inputs.lines[inputs.stream[req]])
        });
        let mut samples: Vec<ServeSample> = Vec::with_capacity(results.len());
        for (req, result) in results.into_iter().enumerate() {
            let (response, sample) = match result {
                Ok((response, sample)) => (Ok(response), Some(sample)),
                Err(e) => (Err(e), None),
            };
            oracle.check(&inputs, req, &response, &mut report);
            samples.extend(sample);
        }
        let round_trip: f64 = samples.iter().map(|s| s.round_trip_ms).sum();
        let accounted: f64 = samples.iter().map(|s| s.engine_ms + s.parse_ms).sum();
        layers.unaccounted.push(1.0 - accounted / round_trip);
        layers
            .traced_op_ms
            .extend(samples.iter().map(|s| s.round_trip_ms));
        layers.serve.extend(samples);
        layers
            .counters
            .add(pass, "wire.request_bytes", request_bytes);

        // Cache counters and the snapshot come from a sequential replay
        // of the stream, so that they do not depend on how the two
        // clients interleave.
        clear_stage_caches();
        for req in 0..inputs.stream.len() {
            let (_, response) = send(&addr, &inputs.lines[inputs.stream[req]]);
            oracle.check(&inputs, req, &response, &mut report);
        }
        layers.cache_counters(Some(pass));
        layers.persist(pass, &dir, &mut report);
        layers.engine(pass, &distinct);
        pass += 1;
        layers.passes = pass;
    }

    let counts = probe::server_counts(&addr)?;
    probe::stop_server(server);
    drop(std::fs::remove_dir_all(&dir));
    layers.finish(&counts, &mut report, &ctx.trace_file)?;
    Ok(report)
}
