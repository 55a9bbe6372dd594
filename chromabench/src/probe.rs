//! The traced run's layer probes and its per-layer metrics.
//!
//! Every traced run calls each layer's public functions on its own
//! workload's inputs, one span per call, so every per-layer metric is
//! measured on every workload: a layer the workload leaves idle shows
//! what it would cost there, and a later change that moves it anyway
//! shows up on the workload that should not have moved.

use std::collections::BTreeMap;
use std::path::Path;

use chromata::{
    clear_stage_caches, continuous_map_exists, load_cache_dir, persist_now, split_all,
    stage_cache_stats, CacheDirConfig, LinkGraphs, Presentations,
};
use chromata_cli::serve::{request_line, ServeOptions, Server};
use chromata_cli::wire::{parse_request, Request, DEFAULT_MAX_PAYLOAD};
use chromata_task::{canonicalize, Task};
use serde_json::Value;

use crate::trace::{self_ms_per_pass, total_ms_per_pass, Span, Tracer};
use crate::{median, quantile, Report};

/// Socket timeout for one benchmark request, in seconds.
pub const REQUEST_TIMEOUT_SECS: u64 = 30;

/// Cache kinds reported per layer. The exploration (ACT) cache is left
/// out with the rest of the parked ACT layer.
const CACHE_KINDS: [&str; 5] = [
    "split",
    "link-graphs",
    "presentations",
    "homology",
    "verdict",
];

/// One request's round trip split into its measured parts.
pub struct ServeSample {
    pub round_trip_ms: f64,
    /// In-process analyze time, as the server reports it (`wall_ms`).
    pub engine_ms: f64,
    /// `parse_request` on the same line, timed in this process.
    pub parse_ms: f64,
}

/// Deterministic work counters: each pass records its own, and every
/// pass must record the same values.
#[derive(Default)]
pub struct Counters {
    per_pass: Vec<BTreeMap<String, f64>>,
    once: BTreeMap<String, f64>,
}

impl Counters {
    pub fn add(&mut self, pass: usize, name: &str, value: f64) {
        if self.per_pass.len() <= pass {
            self.per_pass.resize_with(pass + 1, BTreeMap::new);
        }
        *self.per_pass[pass].entry(name.to_owned()).or_default() += value;
    }

    /// A counter measured once per run (e.g. from a sequential replay).
    pub fn set(&mut self, name: &str, value: f64) {
        self.once.insert(name.to_owned(), value);
    }

    fn get(&self, name: &str) -> f64 {
        self.once
            .get(name)
            .or_else(|| self.per_pass.first().and_then(|m| m.get(name)))
            .copied()
            .unwrap_or(0.0)
    }

    /// Counts a failure for every pass whose counters differ from the
    /// first pass's.
    fn check_repeat(&self, report: &mut Report) {
        let Some(first) = self.per_pass.first() else {
            return;
        };
        for (pass, counters) in self.per_pass.iter().enumerate().skip(1) {
            report.check(counters == first, || {
                format!("work counters of pass {pass} {counters:?} differ from pass 0 {first:?}")
            });
        }
    }
}

/// Everything a traced run accumulates before it reports.
pub struct Layers {
    pub tracer: Tracer,
    pub passes: usize,
    pub counters: Counters,
    pub serve: Vec<ServeSample>,
    /// The workload's operation timed without spans, interleaved with
    /// the traced runs of the same operation.
    pub untraced_op_ms: Vec<f64>,
    pub traced_op_ms: Vec<f64>,
    /// Per pass, the share of the traced operation the layer spans
    /// leave unaccounted.
    pub unaccounted: Vec<f64>,
}

impl Layers {
    pub fn new() -> Layers {
        Layers {
            tracer: Tracer::new(),
            passes: 0,
            counters: Counters::default(),
            serve: Vec::new(),
            untraced_op_ms: Vec::new(),
            traced_op_ms: Vec::new(),
            unaccounted: Vec::new(),
        }
    }

    /// Engine layers on each task: canonicalize, split (three-process
    /// tasks), link graphs, presentations and the continuous-map check,
    /// in the order the decision procedure runs them. Returns the sum
    /// of the engine layers' self time in this pass.
    pub fn engine(&mut self, pass: usize, tasks: &[&Task]) -> f64 {
        let tr = &self.tracer;
        let mut steps = 0usize;
        let mut components = 0usize;
        for (i, task) in tasks.iter().enumerate() {
            let req = i as u64;
            tr.span("probe.task", None, pass, req, |root| {
                let canon = tr.span("task.canonicalize", Some(root), pass, req, |_| {
                    canonicalize(task)
                });
                let target = if canon.process_count() == 3 {
                    let split = tr.span("splitting.split_all", Some(root), pass, req, |_| {
                        split_all(&canon)
                    });
                    steps += split.steps.len();
                    if split.degenerate.is_some() {
                        // The engine stops at a degenerate split.
                        return;
                    }
                    split.task
                } else {
                    canon
                };
                let links = tr.span("artifacts.link_graphs", Some(root), pass, req, |_| {
                    LinkGraphs::build(&target)
                });
                let presentations =
                    tr.span("artifacts.presentations", Some(root), pass, req, |_| {
                        Presentations::build(&target, &links)
                    });
                components += presentations.component_count();
                tr.span("continuous.map_exists", Some(root), pass, req, |_| {
                    continuous_map_exists(&target)
                });
            });
        }
        self.counters.add(pass, "splitting.steps", steps as f64);
        self.counters
            .add(pass, "artifacts.presentation_components", components as f64);
        let spans = self.tracer.spans();
        ENGINE_LAYERS
            .iter()
            .map(|layer| engine_self_ms(&spans, layer, pass + 1)[pass])
            .sum()
    }

    /// `parse_request` over each request line.
    pub fn wire(&mut self, pass: usize, lines: &[String], report: &mut Report) {
        let mut bytes = 0usize;
        for (i, line) in lines.iter().enumerate() {
            let parsed = self
                .tracer
                .span("wire.parse_request", None, pass, i as u64, |_| {
                    parse_request(line, DEFAULT_MAX_PAYLOAD)
                });
            report.check(matches!(parsed, Ok(Request::Analyze(_))), || {
                format!("request line {i} did not parse as an analyze request")
            });
            bytes += line.len();
        }
        self.counters.add(
            pass,
            "wire.request_bytes",
            bytes as f64 / lines.len().max(1) as f64,
        );
    }

    /// One round trip through a live server, then `parse_request` on the
    /// same line in process. Returns the response line.
    pub fn round_trip(
        &self,
        pass: usize,
        req: u64,
        addr: &str,
        line: &str,
    ) -> Result<(String, ServeSample), String> {
        let (response, round_trip_ms) =
            self.tracer.span_ms("serve.request", None, pass, req, |_| {
                request_line(addr, line, REQUEST_TIMEOUT_SECS)
            });
        let response = response.map_err(|e| e.0)?;
        let ((), parse_ms) = self
            .tracer
            .span_ms("wire.parse_request", None, pass, req, |_| {
                drop(parse_request(line, DEFAULT_MAX_PAYLOAD));
            });
        let engine_ms = wall_ms(&response).ok_or_else(|| format!("no wall_ms in {response}"))?;
        Ok((
            response,
            ServeSample {
                round_trip_ms,
                engine_ms,
                parse_ms,
            },
        ))
    }

    /// Sends each line to the server at `addr` one at a time and checks that
    /// each answer carries `expected[i]` as its verdict label.
    pub fn serve(
        &mut self,
        pass: usize,
        addr: &str,
        lines: &[String],
        expected: &[&str],
        report: &mut Report,
    ) {
        for (i, (line, want)) in lines.iter().zip(expected).enumerate() {
            match self.round_trip(pass, i as u64, addr, line) {
                Ok((response, sample)) => {
                    let got = field(&response, "verdict");
                    report.check(got.as_deref() == Some(*want), || {
                        format!("served request {i}: want {want}, got {response}")
                    });
                    self.serve.push(sample);
                }
                Err(e) => report.check(false, || format!("served request {i}: {e}")),
            }
        }
    }

    /// Snapshots the store into `dir`, then clears the store and
    /// restores it from that snapshot.
    pub fn persist(&mut self, pass: usize, dir: &Path, report: &mut Report) {
        let config = CacheDirConfig::at(dir);
        let saved = self.tracer.span("persist.persist_now", None, pass, 0, |_| {
            persist_now(&config)
        });
        report.check(matches!(saved, Some(Ok(_))), || {
            format!("persist_now into {} failed: {saved:?}", dir.display())
        });
        self.counters
            .add(pass, "persist.snapshot_bytes", dir_bytes(dir) as f64);
        clear_stage_caches();
        load(
            &self.tracer,
            &mut self.counters,
            pass,
            None,
            &config,
            report,
        );
    }

    /// Records the process-wide stage-cache counters: as counters of
    /// `pass`, or as run-level counters when `pass` is `None`.
    pub fn cache_counters(&mut self, pass: Option<usize>) {
        for (kind, stats) in stage_cache_stats() {
            let Some(name) = CACHE_KINDS.iter().find(|k| **k == kind.name()) else {
                continue;
            };
            for (field, value) in [
                ("hits", stats.hits),
                ("misses", stats.misses),
                ("evictions", stats.evictions),
                ("reuse_hits", stats.reuse_hits),
                ("lookups", stats.lookups),
            ] {
                let key = format!("cache.{name}.{field}");
                match pass {
                    Some(pass) => self.counters.add(pass, &key, value as f64),
                    None => self.counters.set(&key, value as f64),
                }
            }
        }
    }

    /// Pushes every per-layer metric and writes the spans to `path`.
    pub fn finish(
        self,
        stats: &ServerCounts,
        report: &mut Report,
        path: &Path,
    ) -> Result<(), String> {
        self.counters.check_repeat(report);
        let spans = self.tracer.spans();
        let n = self.passes.max(1);
        let self_ms = |name: &str| median(&engine_self_ms(&spans, name, n));
        let c = |name: &str| self.counters.get(name);

        let parse: Vec<f64> = spans
            .iter()
            .filter(|s| s.name == "wire.parse_request")
            .map(Span::ms)
            .collect();
        let overhead: Vec<f64> = self
            .serve
            .iter()
            .map(|s| s.round_trip_ms - s.engine_ms - s.parse_ms)
            .collect();
        let engine: Vec<f64> = self.serve.iter().map(|s| s.engine_ms).collect();
        let persist_ms = |name: &str| median(&total_ms_per_pass(&spans, name, n));
        let lookups = c("cache.verdict.lookups");
        let hit_ratio = if lookups > 0.0 {
            c("cache.verdict.hits") / lookups
        } else {
            0.0
        };

        let mut metrics = vec![
            (
                "task.canonicalize.self_ms",
                self_ms("task.canonicalize"),
                "ms",
            ),
            (
                "splitting.split_all.self_ms",
                self_ms("splitting.split_all"),
                "ms",
            ),
            ("splitting.steps", c("splitting.steps"), "count"),
            (
                "artifacts.link_graphs.self_ms",
                self_ms("artifacts.link_graphs"),
                "ms",
            ),
            (
                "artifacts.presentations.self_ms",
                self_ms("artifacts.presentations"),
                "ms",
            ),
            (
                "artifacts.presentation_components",
                c("artifacts.presentation_components"),
                "count",
            ),
            (
                "continuous.homology.self_ms",
                self_ms("continuous.homology"),
                "ms",
            ),
            (
                "continuous.assignments_checked",
                c("continuous.assignments_checked"),
                "count",
            ),
        ];
        let cache_names: Vec<String> = CACHE_KINDS
            .iter()
            .flat_map(|kind| {
                ["hits", "misses", "evictions", "reuse_hits"]
                    .map(|field| format!("cache.{kind}.{field}"))
            })
            .collect();
        metrics.extend(
            cache_names
                .iter()
                .map(|name| (name.as_str(), c(name), "count")),
        );
        metrics.extend([
            ("cache.verdict.lookups", lookups, "count"),
            ("cache.verdict.hit_ratio", hit_ratio, "ratio"),
            ("wire.parse_ms", mean(&parse), "ms"),
            ("wire.request_bytes", c("wire.request_bytes"), "bytes"),
            ("serve.overhead_ms", median(&overhead), "ms"),
            ("serve.engine_ms", median(&engine), "ms"),
            ("serve.overloaded", stats.overloaded as f64, "count"),
            ("serve.malformed", stats.malformed as f64, "count"),
            (
                "persist.load_ms",
                persist_ms("persist.load_cache_dir"),
                "ms",
            ),
            ("persist.save_ms", persist_ms("persist.persist_now"), "ms"),
            (
                "persist.snapshot_bytes",
                c("persist.snapshot_bytes"),
                "bytes",
            ),
            (
                "persist.restored_entries",
                c("persist.restored_entries"),
                "count",
            ),
            (
                "persist.recovery_events",
                c("persist.recovery_events"),
                "count",
            ),
            (
                "trace.unaccounted_share",
                median(&self.unaccounted),
                "ratio",
            ),
            (
                "trace.overhead_share",
                median(&self.traced_op_ms) / median(&self.untraced_op_ms) - 1.0,
                "ratio",
            ),
            ("op_ms.p99", quantile(&self.untraced_op_ms, 0.99), "ms"),
            (
                "failed_share",
                report.failed as f64 / report.attempted.max(1) as f64,
                "ratio",
            ),
        ]);
        for (name, value, unit) in metrics {
            report.metric(name, value, unit);
        }
        crate::trace::write(&spans, path)
    }
}

/// `load_cache_dir` in its own span, recording what it restored.
pub fn load(
    tracer: &Tracer,
    counters: &mut Counters,
    pass: usize,
    parent: Option<u64>,
    config: &CacheDirConfig,
    report: &mut Report,
) {
    let loaded = tracer.span("persist.load_cache_dir", parent, pass, 0, |_| {
        load_cache_dir(config)
    });
    match loaded {
        Some(load) => {
            counters.add(pass, "persist.restored_entries", load.restored as f64);
            counters.add(
                pass,
                "persist.recovery_events",
                load.recovery_events() as f64,
            );
            report.check(load.recovery_events() == 0 && load.restored > 0, || {
                format!("restore was not clean: {load:?}")
            });
        }
        None => report.check(false, || "load_cache_dir: no cache dir".to_owned()),
    }
}

/// The engine layers whose self times add up against an end-to-end
/// operation.
pub const ENGINE_LAYERS: [&str; 5] = [
    "task.canonicalize",
    "splitting.split_all",
    "artifacts.link_graphs",
    "artifacts.presentations",
    "continuous.homology",
];

/// Per-pass self time of one engine layer. `continuous_map_exists`
/// rebuilds link graphs and presentations internally, so the homology
/// layer's self time is its span minus those two spans, which the probe
/// times on the same input just before.
fn engine_self_ms(spans: &[Span], layer: &str, passes: usize) -> Vec<f64> {
    if layer != "continuous.homology" {
        return self_ms_per_pass(spans, layer, passes);
    }
    let map = self_ms_per_pass(spans, "continuous.map_exists", passes);
    let links = self_ms_per_pass(spans, "artifacts.link_graphs", passes);
    let presentations = self_ms_per_pass(spans, "artifacts.presentations", passes);
    (0..passes)
        .map(|p| map[p] - links[p] - presentations[p])
        .collect()
}

/// Server-side counters read through the `stats` op.
#[derive(Default)]
pub struct ServerCounts {
    pub overloaded: u64,
    pub malformed: u64,
}

/// Reads the server's request counters through the wire `stats` op.
pub fn server_counts(addr: &str) -> Result<ServerCounts, String> {
    let response =
        request_line(addr, r#"{"op":"stats"}"#, REQUEST_TIMEOUT_SECS).map_err(|e| e.0)?;
    let value: Value = serde_json::from_str(&response).map_err(|e| format!("stats: {e}"))?;
    let count = |key: &str| match &value[key] {
        Value::UInt(n) => Some(*n),
        Value::Int(n) => u64::try_from(*n).ok(),
        _ => None,
    };
    Ok(ServerCounts {
        overloaded: count("overloaded").ok_or("stats: no overloaded count")?,
        malformed: count("malformed").ok_or("stats: no malformed count")?,
    })
}

/// Starts an in-process server on a free loopback port, sized to the
/// machine, with persistence off.
pub fn start_server() -> Result<Server, String> {
    Server::start(ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        threads: 0,
        persist_secs: 0,
        cache_dir: None,
        ..ServeOptions::default()
    })
    .map_err(|e| e.0)
}

/// Stops a server and waits for all of its threads.
pub fn stop_server(server: Server) {
    server.shutdown();
    eprintln!("chromabench: {}", server.wait());
}

/// A string field of a JSON response line.
pub fn field(response: &str, key: &str) -> Option<String> {
    let value: Value = serde_json::from_str(response).ok()?;
    match &value[key] {
        Value::String(s) => Some(s.clone()),
        _ => None,
    }
}

fn wall_ms(response: &str) -> Option<f64> {
    let value: Value = serde_json::from_str(response).ok()?;
    match value["wall_ms"] {
        Value::Float(ms) => Some(ms),
        Value::UInt(ms) => Some(ms as f64),
        Value::Int(ms) => Some(ms as f64),
        _ => None,
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Total size of the regular files in `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
