//! CLI argument parsing and command dispatch (no external parser: the
//! grammar is four subcommands with a handful of flags).

use std::fmt::Write as _;
use std::path::PathBuf;

use chromata::{
    audit_cache_dir, clear_cache_dir, laps, solve_act, ActOutcome, Analysis, Budget,
    CacheDirConfig, CancelToken, Engine, PipelineOptions, Verdict,
};
use chromata_runtime::{verify_figure7, verify_figure7_with_crashes, VerifyError};
use chromata_task::Task;

use crate::registry;

/// A parsed CLI invocation.
#[derive(Debug, PartialEq)]
pub enum Command {
    /// `chromata list`
    List,
    /// `chromata analyze <task> [--act-fallback N]`
    Analyze {
        /// Registry name or path to a task JSON file.
        task: String,
        /// ACT fallback rounds for undetermined verdicts.
        act_fallback: usize,
    },
    /// `chromata explain <task> [--act-fallback N] [--json]` — the
    /// verdict plus its evidence chain: which stages ran (or replayed),
    /// what each concluded, per-stage work/wall-clock counters, and the
    /// engine's verdict-cache statistics.
    Explain {
        /// Registry name or path to a task JSON file.
        task: String,
        /// ACT fallback rounds for undetermined verdicts.
        act_fallback: usize,
        /// Emit machine-readable JSON instead of the text table.
        json: bool,
        /// Durable verdict-cache directory (`--cache-dir`, falling back
        /// to `CHROMATA_CACHE_DIR`).
        cache_dir: Option<PathBuf>,
    },
    /// `chromata batch [--act-fallback N] [--cache-dir DIR] [--digests]
    /// [task...]` — analyze many tasks on one shared engine
    /// (whole library if no tasks are named), one verdict line per task.
    Batch {
        /// Registry names or paths (empty = the whole library).
        tasks: Vec<String>,
        /// ACT fallback rounds for undetermined verdicts.
        act_fallback: usize,
        /// Durable verdict-cache directory (`--cache-dir`, falling back
        /// to `CHROMATA_CACHE_DIR`).
        cache_dir: Option<PathBuf>,
        /// Print each task's 16-hex evidence digest (`--digests`).
        digests: bool,
    },
    /// `chromata act <task> [--rounds N]`
    Act {
        /// Registry name or path to a task JSON file.
        task: String,
        /// Maximum subdivision rounds to search.
        rounds: usize,
    },
    /// `chromata export <task> [-o FILE]`
    Export {
        /// Registry name.
        task: String,
        /// Output path (stdout if absent).
        output: Option<PathBuf>,
    },
    /// `chromata inspect <task>`
    Inspect {
        /// Registry name or path to a task JSON file.
        task: String,
    },
    /// `chromata verify-fig7 <task> [--max-states N]`
    VerifyFig7 {
        /// Registry name or path to a task JSON file.
        task: String,
        /// State budget for the model checker.
        max_states: usize,
    },
    /// `chromata decide <task> [--budget-ms N] [--max-states N]
    /// [--act-rounds N] [--max-crashes N]` — the governed end-to-end
    /// decision: pipeline verdict plus crash-tolerant wait-freedom check,
    /// degrading to a structured UNKNOWN (exit 0) on budget exhaustion.
    Decide {
        /// Registry name or path to a task JSON file.
        task: String,
        /// Wall-clock budget in milliseconds (unlimited if absent).
        budget_ms: Option<u64>,
        /// State budget for the crash-injected model checker.
        max_states: usize,
        /// ACT fallback / escalation-ladder round cap.
        act_rounds: usize,
        /// Maximum crash faults injected by the wait-freedom check.
        max_crashes: usize,
        /// Durable verdict-cache directory (`--cache-dir`, falling back
        /// to `CHROMATA_CACHE_DIR`).
        cache_dir: Option<PathBuf>,
    },
    /// `chromata serve [--addr A] [--threads N] [--admission N]
    /// [--queue N] [--max-payload N] [--budget-ms N] [--cache-dir DIR]
    /// [--persist-secs N] [--idle-secs N]` — the long-lived verdict
    /// daemon: newline-delimited JSON requests over TCP, a shared warm
    /// engine, layered admission control, and background
    /// persistence (see `crate::serve`).
    Serve {
        /// Bind address (port 0 = OS-assigned; printed on boot).
        addr: String,
        /// Worker threads (0 = available parallelism).
        threads: usize,
        /// Concurrent-analysis permits (default: one per worker).
        admission: Option<usize>,
        /// Pending-connection queue bound (default: 4 × workers).
        queue: Option<usize>,
        /// Per-request payload bound in bytes.
        max_payload: usize,
        /// Server-side per-request wall-clock cap in milliseconds.
        budget_ms: Option<u64>,
        /// Durable verdict-cache directory (`--cache-dir`, falling back
        /// to `CHROMATA_CACHE_DIR`).
        cache_dir: Option<PathBuf>,
        /// Background persistence cadence in seconds (0 = off).
        persist_secs: u64,
        /// Per-connection idle read timeout in seconds.
        idle_secs: u64,
    },
    /// `chromata request [--addr A] [--op OP] [--act-fallback N]
    /// [--budget-ms N] [--max-states N] [--retry N] [--json] [task]` —
    /// one-shot client for a running `chromata serve`.
    Request {
        /// Server address.
        addr: String,
        /// Wire op: analyze (default), ping, stats, persist, shutdown.
        op: String,
        /// Task for analyze: registry name or path to a task JSON file.
        task: Option<String>,
        /// ACT fallback rounds for undetermined verdicts.
        act_fallback: usize,
        /// Requested wall-clock budget in milliseconds.
        budget_ms: Option<u64>,
        /// Requested state budget.
        max_states: Option<usize>,
        /// Retry budget for overload rejections: each retry sleeps for
        /// the server's `retry_after_ms` hint (capped exponential
        /// backoff when the response carries none) before resending.
        retry: u32,
        /// Print the raw JSON response line instead of a summary.
        json: bool,
    },
    /// `chromata cache <stats|verify|clear> [--cache-dir DIR]` —
    /// offline maintenance of a durable verdict-cache directory. `verify`
    /// exits nonzero when any snapshot is rejected, torn, or corrupt.
    Cache {
        /// `stats`, `verify`, or `clear`.
        action: CacheAction,
        /// The cache directory (`--cache-dir`, falling back to
        /// `CHROMATA_CACHE_DIR`).
        cache_dir: Option<PathBuf>,
    },
    /// `chromata fuzz [--seed N] [--rounds K] [--act-fallback N]
    /// [task...]` — the mutation-fuzzing campaign: derive `K` seeded
    /// near-duplicate mutants of each base task (whole library if none
    /// are named), analyze them on one engine, and report a sample of
    /// warm-vs-cold evidence-digest parity lines.
    Fuzz {
        /// Registry names or paths (empty = the whole library).
        tasks: Vec<String>,
        /// Deterministic mutation seed: `(seed, index)` fully
        /// determines each mutant.
        seed: u64,
        /// Mutants derived per base task.
        rounds: usize,
        /// ACT fallback rounds for undetermined verdicts.
        act_fallback: usize,
    },
    /// `chromata chaos [--seed N] [--rounds K] [--faults LIST]
    /// [--cache-dir DIR]` — the randomized end-to-end fault campaign:
    /// replay a seeded mutation-fuzzed task stream through a live serve
    /// while a seeded schedule injects persist/net/signal faults, asserting
    /// verdict and digest parity against a clean oracle run after every
    /// round (see `crate::chaos`).
    Chaos {
        /// Seed for the mutation stream and the fault schedule.
        seed: u64,
        /// Campaign rounds (one mutant per round).
        rounds: usize,
        /// Enabled fault families (`--faults persist,net,signal`).
        faults: Vec<chromata::FaultKind>,
        /// Cache directory (a fresh temp directory when absent).
        cache_dir: Option<PathBuf>,
    },
    /// `chromata lint [--deny-all] [--json] [PATH...]` — the workspace
    /// static-analysis pass (same engine as `cargo xtask lint`).
    Lint {
        /// Workspace-relative paths to lint (whole workspace if empty).
        paths: Vec<String>,
        /// Treat every primary rule as an error.
        deny_all: bool,
        /// Emit the stable machine-readable JSON document instead of
        /// rustc-style diagnostics.
        json: bool,
    },
    /// `chromata help` or `--help`
    Help,
}

/// The three offline `chromata cache` maintenance actions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheAction {
    /// Print the verdict snapshot's statistics.
    Stats,
    /// Audit snapshot integrity; nonzero exit on any corruption.
    Verify,
    /// Delete every snapshot (and stray temp file) in the directory.
    Clear,
}

/// Errors produced by parsing or executing a command.
#[derive(Debug, PartialEq)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Parses raw arguments (without the binary name).
///
/// # Errors
///
/// Returns a [`CliError`] describing the first malformed argument.
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter();
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    match cmd.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => Ok(Command::List),
        "analyze" => {
            let task = required(&mut it, "analyze needs a task name or file")?;
            let mut act_fallback = 0usize;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--act-fallback" => {
                        act_fallback = parse_number(&mut it, "--act-fallback")?;
                    }
                    other => return Err(CliError(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Analyze { task, act_fallback })
        }
        "explain" => {
            let task = required(&mut it, "explain needs a task name or file")?;
            let mut act_fallback = 0usize;
            let mut json = false;
            let mut cache_dir = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--act-fallback" => {
                        act_fallback = parse_number(&mut it, "--act-fallback")?;
                    }
                    "--json" => json = true,
                    "--cache-dir" => {
                        cache_dir = Some(PathBuf::from(required(
                            &mut it,
                            "--cache-dir needs a path",
                        )?));
                    }
                    other => return Err(CliError(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Explain {
                task,
                act_fallback,
                json,
                cache_dir,
            })
        }
        "batch" => {
            let mut tasks = Vec::new();
            let mut act_fallback = 0usize;
            let mut cache_dir = None;
            let mut digests = false;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--act-fallback" => {
                        act_fallback = parse_number(&mut it, "--act-fallback")?;
                    }
                    "--digests" => digests = true,
                    "--cache-dir" => {
                        cache_dir = Some(PathBuf::from(required(
                            &mut it,
                            "--cache-dir needs a path",
                        )?));
                    }
                    flag if flag.starts_with('-') => {
                        return Err(CliError(format!("unknown flag {flag}")));
                    }
                    task => tasks.push(task.to_owned()),
                }
            }
            Ok(Command::Batch {
                tasks,
                act_fallback,
                cache_dir,
                digests,
            })
        }
        "act" => {
            let task = required(&mut it, "act needs a task name or file")?;
            let mut rounds = 1usize;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--rounds" => rounds = parse_number(&mut it, "--rounds")?,
                    other => return Err(CliError(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Act { task, rounds })
        }
        "export" => {
            let task = required(&mut it, "export needs a task name")?;
            let mut output = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "-o" | "--output" => {
                        output = Some(PathBuf::from(required(&mut it, "-o needs a path")?));
                    }
                    other => return Err(CliError(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Export { task, output })
        }
        "inspect" => {
            let task = required(&mut it, "inspect needs a task name or file")?;
            if let Some(extra) = it.next() {
                return Err(CliError(format!("unexpected argument {extra}")));
            }
            Ok(Command::Inspect { task })
        }
        "verify-fig7" => {
            let task = required(&mut it, "verify-fig7 needs a task name or file")?;
            let mut max_states = 5_000_000usize;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--max-states" => max_states = parse_number(&mut it, "--max-states")?,
                    other => return Err(CliError(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::VerifyFig7 { task, max_states })
        }
        "decide" => {
            let task = required(&mut it, "decide needs a task name or file")?;
            let mut budget_ms = None;
            let mut max_states = 5_000_000usize;
            let mut act_rounds = 2usize;
            let mut max_crashes = 2usize;
            let mut cache_dir = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--budget-ms" => {
                        budget_ms = Some(parse_number_u64(&mut it, "--budget-ms")?);
                    }
                    "--max-states" => max_states = parse_number(&mut it, "--max-states")?,
                    "--act-rounds" => act_rounds = parse_number(&mut it, "--act-rounds")?,
                    "--max-crashes" => max_crashes = parse_number(&mut it, "--max-crashes")?,
                    "--cache-dir" => {
                        cache_dir = Some(PathBuf::from(required(
                            &mut it,
                            "--cache-dir needs a path",
                        )?));
                    }
                    other => return Err(CliError(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Decide {
                task,
                budget_ms,
                max_states,
                act_rounds,
                max_crashes,
                cache_dir,
            })
        }
        "serve" => {
            let mut addr = "127.0.0.1:7437".to_owned();
            let mut threads = 0usize;
            let mut admission = None;
            let mut queue = None;
            let mut max_payload = crate::wire::DEFAULT_MAX_PAYLOAD;
            let mut budget_ms = None;
            let mut cache_dir = None;
            let mut persist_secs = 30u64;
            let mut idle_secs = 30u64;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--addr" => addr = required(&mut it, "--addr needs HOST:PORT")?,
                    "--threads" => threads = parse_number(&mut it, "--threads")?,
                    "--admission" => admission = Some(parse_number(&mut it, "--admission")?),
                    "--queue" => queue = Some(parse_number(&mut it, "--queue")?),
                    "--max-payload" => max_payload = parse_number(&mut it, "--max-payload")?,
                    "--budget-ms" => {
                        budget_ms = Some(parse_number_u64(&mut it, "--budget-ms")?);
                    }
                    "--cache-dir" => {
                        cache_dir = Some(PathBuf::from(required(
                            &mut it,
                            "--cache-dir needs a path",
                        )?));
                    }
                    "--persist-secs" => {
                        persist_secs = parse_number_u64(&mut it, "--persist-secs")?;
                    }
                    "--idle-secs" => idle_secs = parse_number_u64(&mut it, "--idle-secs")?,
                    other => return Err(CliError(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Serve {
                addr,
                threads,
                admission,
                queue,
                max_payload,
                budget_ms,
                cache_dir,
                persist_secs,
                idle_secs,
            })
        }
        "request" => {
            let mut addr = "127.0.0.1:7437".to_owned();
            let mut op = "analyze".to_owned();
            let mut task = None;
            let mut act_fallback = 0usize;
            let mut budget_ms = None;
            let mut max_states = None;
            let mut retry = 0u32;
            let mut json = false;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--addr" => addr = required(&mut it, "--addr needs HOST:PORT")?,
                    "--op" => op = required(&mut it, "--op needs an op name")?,
                    "--act-fallback" => {
                        act_fallback = parse_number(&mut it, "--act-fallback")?;
                    }
                    "--budget-ms" => {
                        budget_ms = Some(parse_number_u64(&mut it, "--budget-ms")?);
                    }
                    "--max-states" => max_states = Some(parse_number(&mut it, "--max-states")?),
                    "--retry" => {
                        retry = u32::try_from(parse_number(&mut it, "--retry")?)
                            .map_err(|_| CliError("--retry is out of range".to_owned()))?;
                    }
                    "--json" => json = true,
                    flag if flag.starts_with('-') => {
                        return Err(CliError(format!("unknown flag {flag}")));
                    }
                    spec => {
                        if task.is_some() {
                            return Err(CliError("request takes at most one task".to_owned()));
                        }
                        task = Some(spec.to_owned());
                    }
                }
            }
            if op == "analyze" && task.is_none() {
                return Err(CliError(
                    "request needs a task name or file (or --op ping/stats/persist/shutdown)"
                        .to_owned(),
                ));
            }
            if op != "analyze" && task.is_some() {
                return Err(CliError(format!("op `{op}` does not take a task")));
            }
            Ok(Command::Request {
                addr,
                op,
                task,
                act_fallback,
                budget_ms,
                max_states,
                retry,
                json,
            })
        }
        "cache" => {
            let action = match required(&mut it, "cache needs an action: stats, verify or clear")?
                .as_str()
            {
                "stats" => CacheAction::Stats,
                "verify" => CacheAction::Verify,
                "clear" => CacheAction::Clear,
                other => {
                    return Err(CliError(format!(
                        "unknown cache action `{other}`; expected stats, verify or clear"
                    )))
                }
            };
            let mut cache_dir = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--cache-dir" => {
                        cache_dir = Some(PathBuf::from(required(
                            &mut it,
                            "--cache-dir needs a path",
                        )?));
                    }
                    other => return Err(CliError(format!("unknown flag {other}"))),
                }
            }
            Ok(Command::Cache { action, cache_dir })
        }
        "fuzz" => {
            let mut tasks = Vec::new();
            let mut seed = 1u64;
            let mut rounds = 16usize;
            let mut act_fallback = 0usize;
            while let Some(arg) = it.next() {
                match arg.as_str() {
                    "--seed" => seed = parse_number_u64(&mut it, "--seed")?,
                    "--rounds" => rounds = parse_number(&mut it, "--rounds")?,
                    "--act-fallback" => {
                        act_fallback = parse_number(&mut it, "--act-fallback")?;
                    }
                    flag if flag.starts_with('-') => {
                        return Err(CliError(format!("unknown flag {flag}")));
                    }
                    task => tasks.push(task.to_owned()),
                }
            }
            if rounds == 0 {
                return Err(CliError("--rounds must be at least 1".to_owned()));
            }
            Ok(Command::Fuzz {
                tasks,
                seed,
                rounds,
                act_fallback,
            })
        }
        "chaos" => {
            let mut seed = 1u64;
            let mut rounds = 20usize;
            let mut faults = chromata::ALL_FAULT_KINDS.to_vec();
            let mut cache_dir = None;
            while let Some(flag) = it.next() {
                match flag.as_str() {
                    "--seed" => seed = parse_number_u64(&mut it, "--seed")?,
                    "--rounds" => rounds = parse_number(&mut it, "--rounds")?,
                    "--faults" => {
                        let spec = required(
                            &mut it,
                            "--faults needs a comma-separated list (persist,net,signal)",
                        )?;
                        faults = chromata::parse_fault_kinds(&spec).map_err(CliError)?;
                    }
                    "--cache-dir" => {
                        cache_dir = Some(PathBuf::from(required(
                            &mut it,
                            "--cache-dir needs a path",
                        )?));
                    }
                    other => return Err(CliError(format!("unknown flag {other}"))),
                }
            }
            if rounds == 0 {
                return Err(CliError("--rounds must be at least 1".to_owned()));
            }
            Ok(Command::Chaos {
                seed,
                rounds,
                faults,
                cache_dir,
            })
        }
        "lint" => {
            let mut paths = Vec::new();
            let mut deny_all = false;
            let mut json = false;
            for arg in it {
                match arg.as_str() {
                    "--deny-all" => deny_all = true,
                    "--json" => json = true,
                    flag if flag.starts_with('-') => {
                        return Err(CliError(format!("unknown flag {flag}")));
                    }
                    path => paths.push(path.to_owned()),
                }
            }
            Ok(Command::Lint {
                paths,
                deny_all,
                json,
            })
        }
        other => Err(CliError(format!(
            "unknown command {other}; try `chromata help`"
        ))),
    }
}

/// Builds an ordered JSON object from string keys (the vendored
/// `serde_json` has no object-literal macro).
fn json_object(entries: Vec<(&str, serde_json::Value)>) -> serde_json::Value {
    serde_json::Value::Object(
        entries
            .into_iter()
            .map(|(k, v)| (k.to_owned(), v))
            .collect(),
    )
}

fn required(it: &mut std::slice::Iter<'_, String>, msg: &str) -> Result<String, CliError> {
    it.next().cloned().ok_or_else(|| CliError(msg.to_owned()))
}

fn parse_number(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<usize, CliError> {
    let raw = required(it, &format!("{flag} needs a number"))?;
    raw.parse()
        .map_err(|_| CliError(format!("{flag}: `{raw}` is not a number")))
}

/// Parses a flag value as `u64` directly — never through `usize` — so
/// 32-bit targets keep the full range and overflow is an explicit
/// error instead of a silent truncation.
fn parse_number_u64(it: &mut std::slice::Iter<'_, String>, flag: &str) -> Result<u64, CliError> {
    let raw = required(it, &format!("{flag} needs a number"))?;
    raw.parse::<u64>().map_err(|e| match e.kind() {
        std::num::IntErrorKind::PosOverflow => CliError(format!(
            "{flag}: `{raw}` is out of range (maximum {})",
            u64::MAX
        )),
        _ => CliError(format!("{flag}: `{raw}` is not a number")),
    })
}

/// Renders a server response line as human-readable text. Server-side
/// errors become a nonzero-exit [`CliError`]; non-analyze responses
/// pass through as raw JSON.
fn summarize_response(raw: &str) -> Result<String, CliError> {
    use serde_json::Value;
    let doc: Value = serde_json::from_str(raw)
        .map_err(|e| CliError(format!("unparseable server response ({e}): {raw}")))?;
    if doc["status"] == Value::String("error".to_owned()) {
        let msg = match &doc["error"] {
            Value::String(s) => s.clone(),
            _ => raw.to_owned(),
        };
        return Err(CliError(format!("server error: {msg}")));
    }
    if doc["op"] != Value::String("analyze".to_owned()) {
        return Ok(format!("{raw}\n"));
    }
    let mut out = String::new();
    match (&doc["detail"], &doc["verdict"]) {
        (Value::String(detail), _) => {
            let _ = writeln!(out, "verdict: {detail}");
        }
        (_, Value::String(verdict)) => {
            let _ = writeln!(out, "verdict: {verdict}");
        }
        _ => return Ok(format!("{raw}\n")),
    }
    if let Value::String(reason) = &doc["reason"] {
        let _ = writeln!(out, "  {reason}");
    }
    if let (Value::String(decided_by), Value::String(digest)) =
        (&doc["decided_by"], &doc["evidence_digest"])
    {
        let _ = writeln!(out, "decided by: {decided_by}; evidence digest: {digest}");
    }
    // The vendored parser reads non-negative integers back as `Int`.
    match &doc["retry_after_ms"] {
        Value::Int(ms) => {
            let _ = writeln!(out, "retry after: {ms} ms");
        }
        Value::UInt(ms) => {
            let _ = writeln!(out, "retry after: {ms} ms");
        }
        _ => {}
    }
    Ok(out)
}

/// Decides one task on `engine`.
pub(crate) fn analyze_one(
    engine: &Engine,
    task: &Task,
    options: PipelineOptions,
    budget: &Budget,
    cancel: &CancelToken,
) -> Analysis {
    engine
        .analyze(std::slice::from_ref(task), options, budget, cancel)
        .remove(0)
}

/// Runs `decide` on a fresh engine that is loaded once from the cache
/// directory before and persisted once after, if one is configured.
/// Returns what `decide` returned plus the persistence bookkeeping lines
/// the command prints (restores, snapshot writes, and non-fatal save
/// failures).
fn with_engine<T>(config: &CacheDirConfig, decide: impl FnOnce(&Engine) -> T) -> (T, String) {
    let engine = Engine::new();
    let Some(dir) = config.dir() else {
        return (decide(&engine), String::new());
    };
    let loaded = engine.load(dir);
    let value = decide(&engine);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "cache: restored {} artifact(s) from {} ({} rejected, {} torn, {} corrupt)",
        loaded.restored,
        dir.display(),
        loaded.rejected_snapshots,
        loaded.torn_entries,
        loaded.corrupt_entries
    );
    match engine.persist(dir) {
        Ok(saved) => {
            let _ = writeln!(
                out,
                "cache: persisted {} entr{} across {} snapshot(s) to {}",
                saved.entries_written,
                if saved.entries_written == 1 {
                    "y"
                } else {
                    "ies"
                },
                saved.files_written,
                dir.display()
            );
        }
        // Persistence failures never poison a verdict: warn and go on.
        Err(err) => {
            let _ = writeln!(out, "cache: WARNING — snapshot not written: {err}");
        }
    }
    (value, out)
}

/// Loads a task by registry name or from a JSON file path.
///
/// # Errors
///
/// Returns a [`CliError`] if neither resolution succeeds.
pub fn load_task(spec: &str) -> Result<Task, CliError> {
    if let Some(t) = registry::find(spec) {
        return Ok(t);
    }
    if spec.ends_with(".json") || std::path::Path::new(spec).exists() {
        let raw = std::fs::read_to_string(spec)
            .map_err(|e| CliError(format!("cannot read {spec}: {e}")))?;
        return serde_json::from_str(&raw)
            .map_err(|e| CliError(format!("cannot parse {spec}: {e}")));
    }
    Err(CliError(format!(
        "`{spec}` is neither a library task nor a readable file; try `chromata list`"
    )))
}

/// Executes a command, returning its stdout text.
///
/// # Errors
///
/// Returns a [`CliError`] on any failure (unknown task, I/O, budget).
pub fn run(cmd: Command) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(HELP.to_owned()),
        Command::List => {
            let mut out = String::new();
            for e in registry::entries() {
                let _ = writeln!(out, "{:<24} {}", e.name, e.description);
            }
            Ok(out)
        }
        Command::Analyze { task, act_fallback } => {
            let t = load_task(&task)?;
            let options = PipelineOptions {
                act_fallback_rounds: act_fallback,
            };
            let (budget, cancel) = (Budget::unlimited(), CancelToken::new());
            let analysis = analyze_one(&Engine::new(), &t, options, &budget, &cancel);
            let mut out = String::new();
            let _ = writeln!(out, "{t}");
            let lap_list = laps(&t);
            let _ = writeln!(
                out,
                "articulation points: {}; split steps: {}; O' components: {}",
                lap_list.len(),
                analysis.split.steps.len(),
                analysis.split.task.output().connected_components().len()
            );
            match &analysis.verdict {
                Verdict::Solvable { certificate } => {
                    let _ = writeln!(out, "verdict: SOLVABLE\n  {certificate}");
                }
                Verdict::Unsolvable { obstruction } => {
                    let _ = writeln!(out, "verdict: UNSOLVABLE\n  {obstruction}");
                }
                Verdict::Unknown { reason } => {
                    let _ = writeln!(out, "verdict: UNKNOWN\n  {reason}");
                }
            }
            Ok(out)
        }
        Command::Explain {
            task,
            act_fallback,
            json,
            cache_dir,
        } => {
            let t = load_task(&task)?;
            let options = PipelineOptions {
                act_fallback_rounds: act_fallback,
            };
            let (budget, cancel) = (Budget::unlimited(), CancelToken::new());
            let ((analysis, stage_caches), cache_lines) =
                with_engine(&CacheDirConfig::resolve(cache_dir), |engine| {
                    let analysis = analyze_one(engine, &t, options, &budget, &cancel);
                    (analysis, engine.cache_stats())
                });
            if json {
                use serde_json::Value;
                let stages: Vec<Value> = analysis
                    .evidence
                    .stages
                    .iter()
                    .map(|s| {
                        json_object(vec![
                            ("stage", Value::String(s.stage.to_owned())),
                            ("detail", Value::String(s.detail.clone())),
                            ("work", Value::UInt(s.work)),
                            ("cache", Value::String(s.cache.label().to_owned())),
                            ("wall_ms", Value::Float(s.wall.as_secs_f64() * 1e3)),
                        ])
                    })
                    .collect();
                let caches: Vec<Value> = stage_caches
                    .iter()
                    .map(|(kind, stats)| {
                        json_object(vec![
                            ("cache", Value::String(kind.name().to_owned())),
                            ("hits", Value::UInt(stats.hits)),
                            ("misses", Value::UInt(stats.misses)),
                            ("evictions", Value::UInt(stats.evictions)),
                        ])
                    })
                    .collect();
                let doc = json_object(vec![
                    ("task", Value::String(t.name().to_owned())),
                    ("verdict", Value::String(format!("{}", analysis.verdict))),
                    (
                        "decided_by",
                        Value::String(analysis.evidence.decided_by.to_owned()),
                    ),
                    (
                        "evidence_digest",
                        Value::String(format!("{:016x}", analysis.evidence.deterministic_digest())),
                    ),
                    ("stages", Value::Array(stages)),
                    ("stage_caches", Value::Array(caches)),
                ]);
                return serde_json::to_string_pretty(&doc)
                    .map(|mut s| {
                        s.push('\n');
                        s
                    })
                    .map_err(|e| CliError(format!("serialize: {e}")));
            }
            let mut out = String::new();
            let _ = writeln!(out, "{t}");
            let _ = writeln!(out, "verdict: {}", analysis.verdict);
            let _ = write!(out, "{}", analysis.evidence);
            let _ = writeln!(
                out,
                "evidence digest: {:016x}",
                analysis.evidence.deterministic_digest()
            );
            let _ = writeln!(out, "stage caches:");
            for (kind, stats) in stage_caches {
                let _ = writeln!(
                    out,
                    "  {:<13} hits {:>6}  misses {:>6}  evictions {:>6}  restored {:>6}  recovered {:>3}",
                    kind.name(),
                    stats.hits,
                    stats.misses,
                    stats.evictions,
                    stats.restored,
                    stats.recovery_events()
                );
            }
            out.push_str(&cache_lines);
            Ok(out)
        }
        Command::Batch {
            tasks,
            act_fallback,
            cache_dir,
            digests,
        } => {
            let specs: Vec<String> = if tasks.is_empty() {
                registry::entries()
                    .iter()
                    .map(|e| e.name.to_owned())
                    .collect()
            } else {
                tasks
            };
            let loaded: Vec<Task> = specs
                .iter()
                .map(|s| load_task(s))
                .collect::<Result<_, _>>()?;
            let options = PipelineOptions {
                act_fallback_rounds: act_fallback,
            };
            let (budget, cancel) = (Budget::unlimited(), CancelToken::new());
            let (analyses, cache_lines) =
                with_engine(&CacheDirConfig::resolve(cache_dir), |engine| {
                    engine.analyze(&loaded, options, &budget, &cancel)
                });
            let mut out = String::new();
            for (spec, a) in specs.iter().zip(&analyses) {
                if digests {
                    let _ = writeln!(
                        out,
                        "{:<24} {:016x} decided by {:<9} {}",
                        spec,
                        a.evidence.deterministic_digest(),
                        a.evidence.decided_by,
                        a.verdict
                    );
                } else {
                    let _ = writeln!(
                        out,
                        "{:<24} decided by {:<9} {}",
                        spec, a.evidence.decided_by, a.verdict
                    );
                }
            }
            out.push_str(&cache_lines);
            Ok(out)
        }
        Command::Fuzz {
            tasks,
            seed,
            rounds,
            act_fallback,
        } => {
            use chromata::topology::govern::Stopwatch;
            let specs: Vec<String> = if tasks.is_empty() {
                registry::entries()
                    .iter()
                    .map(|e| e.name.to_owned())
                    .collect()
            } else {
                tasks
            };
            let bases: Vec<Task> = specs
                .iter()
                .map(|s| load_task(s))
                .collect::<Result<_, _>>()?;
            let options = PipelineOptions {
                act_fallback_rounds: act_fallback,
            };
            let engine = Engine::new();
            let (budget, cancel) = (Budget::unlimited(), CancelToken::new());
            let total = bases.len() * rounds;
            let sample_step = (total / 8).max(1);
            let watch = Stopwatch::start();
            let mut analyzed = 0usize;
            let mut sampled: Vec<(Task, u64)> = Vec::new();
            for base in &bases {
                for k in 0..rounds {
                    let mutant = chromata_task::mutate_task(base, seed, k as u64);
                    let a = analyze_one(&engine, &mutant, options, &budget, &cancel);
                    if analyzed.is_multiple_of(sample_step) {
                        sampled.push((mutant, a.evidence.deterministic_digest()));
                    }
                    analyzed += 1;
                }
            }
            let elapsed = watch.elapsed();
            let mut out = String::new();
            let secs = elapsed.as_secs_f64();
            let rate = if secs > 0.0 {
                analyzed as f64 / secs
            } else {
                f64::INFINITY
            };
            let _ = writeln!(
                out,
                "fuzz: seed {seed}, {} base task(s) x {rounds} mutant(s) = {analyzed} analyses in {:.0} ms ({rate:.0} task/s)",
                bases.len(),
                secs * 1e3,
            );
            // Warm-vs-cold digest parity on a spread sample: re-deciding
            // on a fresh engine must reproduce each sampled evidence
            // digest byte-for-byte.
            let mut parity_ok = 0usize;
            for (mutant, warm) in &sampled {
                let cold = analyze_one(&Engine::new(), mutant, options, &budget, &cancel)
                    .evidence
                    .deterministic_digest();
                let verdict = if cold == *warm { "ok" } else { "MISMATCH" };
                parity_ok += usize::from(cold == *warm);
                let _ = writeln!(
                    out,
                    "digest-parity {} warm {warm:016x} cold {cold:016x} {verdict}",
                    mutant.name(),
                );
            }
            let _ = writeln!(out, "digest parity: {parity_ok}/{} ok", sampled.len());
            if parity_ok != sampled.len() {
                return Err(CliError(format!(
                    "digest parity failed for {} of {} sampled mutant(s):\n{out}",
                    sampled.len() - parity_ok,
                    sampled.len()
                )));
            }
            Ok(out)
        }
        Command::Chaos {
            seed,
            rounds,
            faults,
            cache_dir,
        } => crate::chaos::run_campaign(&crate::chaos::ChaosOptions {
            seed,
            rounds,
            kinds: faults,
            cache_dir,
        }),
        Command::Act { task, rounds } => {
            let t = load_task(&task)?;
            let mut out = String::new();
            match solve_act(&t, rounds) {
                ActOutcome::Solvable { rounds, map } => {
                    let _ = writeln!(
                        out,
                        "SOLVABLE: chromatic decision map found at {rounds} round(s) ({} vertex assignments)",
                        map.len()
                    );
                }
                ActOutcome::Exhausted { max_rounds } => {
                    let _ = writeln!(
                        out,
                        "INCONCLUSIVE: no decision map up to {max_rounds} round(s) — the ACT check is only a semi-decision"
                    );
                }
                ActOutcome::Interrupted {
                    rounds_completed,
                    interrupt,
                } => {
                    let _ = writeln!(
                        out,
                        "INCONCLUSIVE: search {interrupt} after ruling out {rounds_completed} round(s)"
                    );
                }
            }
            Ok(out)
        }
        Command::Export { task, output } => {
            let t = registry::find(&task)
                .ok_or_else(|| CliError(format!("unknown library task `{task}`")))?;
            let json = serde_json::to_string_pretty(&t)
                .map_err(|e| CliError(format!("serialize: {e}")))?;
            match output {
                Some(path) => {
                    std::fs::write(&path, json)
                        .map_err(|e| CliError(format!("write {}: {e}", path.display())))?;
                    Ok(format!("wrote {}\n", path.display()))
                }
                None => Ok(json),
            }
        }
        Command::Inspect { task } => {
            let t = load_task(&task)?;
            let mut out = String::new();
            let _ = writeln!(out, "{t}");
            let _ = writeln!(
                out,
                "canonical: {}; link-connected: {}",
                chromata_task::is_canonical(&t),
                t.is_link_connected()
            );
            for sigma in t.input().facets() {
                let img = t.delta().image_of(sigma);
                let h = chromata::algebra::homology(img);
                let laps = img.disconnected_link_vertices();
                let _ = writeln!(
                    out,
                    "Δ({sigma}): {} facets, {} vertices; H = (b0={}, b1={}, torsion {:?}); LAPs: {}",
                    img.facet_count(),
                    img.vertex_count(),
                    h.betti0,
                    h.betti1,
                    h.torsion1,
                    laps.len()
                );
            }
            Ok(out)
        }
        Command::VerifyFig7 { task, max_states } => {
            let t = load_task(&task)?;
            if !t.is_link_connected() {
                return Err(CliError(format!(
                    "`{}` is not link-connected: Figure 7's hypothesis (Lemma 5.3) fails — \
                     the model checker would reach a disconnected negotiation",
                    t.name()
                )));
            }
            let report = verify_figure7(&t, max_states)
                .map_err(|e| CliError(format!("exploration: {e}")))?;
            Ok(format!(
                "verified: {} participant sets, {} outcomes, {} states — all correct\n",
                report.participant_sets, report.outcomes, report.states
            ))
        }
        Command::Decide {
            task,
            budget_ms,
            max_states,
            act_rounds,
            max_crashes,
            cache_dir,
        } => {
            let t = load_task(&task)?;
            let mut budget = Budget::unlimited()
                .with_max_states(max_states)
                .with_max_steps(500)
                .with_max_act_rounds(act_rounds);
            if let Some(ms) = budget_ms {
                budget = budget.with_deadline_in(std::time::Duration::from_millis(ms));
            }
            let cancel = CancelToken::new();
            let options = PipelineOptions {
                act_fallback_rounds: act_rounds,
            };
            let (analysis, cache_lines) =
                with_engine(&CacheDirConfig::resolve(cache_dir), |engine| {
                    analyze_one(engine, &t, options, &budget, &cancel)
                });
            let mut out = String::new();
            let _ = writeln!(out, "{t}");
            match &analysis.verdict {
                Verdict::Solvable { certificate } => {
                    let _ = writeln!(out, "verdict: SOLVABLE\n  {certificate}");
                }
                Verdict::Unsolvable { obstruction } => {
                    let _ = writeln!(out, "verdict: UNSOLVABLE\n  {obstruction}");
                }
                Verdict::Unknown { reason } => {
                    let _ = writeln!(out, "verdict: UNKNOWN\n  {reason}");
                }
            }
            // A solvable, link-connected three-process task is in Figure
            // 7's hypothesis: machine-check wait-freedom under crashes.
            // Budget exhaustion degrades to a structured UNKNOWN (still
            // exit 0) carrying a replayable schedule trace.
            if analysis.verdict.is_solvable() && t.process_count() == 3 && t.is_link_connected() {
                match verify_figure7_with_crashes(&t, &budget, &cancel, max_crashes) {
                    Ok(r) => {
                        let _ = writeln!(
                            out,
                            "wait-freedom: VERIFIED — {} participant sets, {} outcomes \
                             ({} with crashes), {} states, ≤{max_crashes} crash fault(s)",
                            r.participant_sets, r.outcomes, r.crashed_outcomes, r.states
                        );
                    }
                    Err(VerifyError::Explore(e)) => {
                        let _ = writeln!(out, "wait-freedom: UNKNOWN — budget exhausted: {e}");
                    }
                    Err(v @ VerifyError::Violation { .. }) => {
                        return Err(CliError(v.to_string()));
                    }
                }
            }
            out.push_str(&cache_lines);
            Ok(out)
        }
        Command::Serve {
            addr,
            threads,
            admission,
            queue,
            max_payload,
            budget_ms,
            cache_dir,
            persist_secs,
            idle_secs,
        } => {
            use std::io::Write as _;
            // SIGTERM/SIGINT must be masked before the server spawns
            // its threads so they inherit the mask and delivery funnels
            // to the dedicated watcher below.
            let signals_masked = chromata_signal::block_termination();
            let server = crate::serve::Server::start(crate::serve::ServeOptions {
                addr,
                threads,
                analysis_slots: admission,
                queue,
                max_payload,
                budget_ms,
                max_states: usize::MAX,
                cache_dir,
                persist_secs,
                idle_timeout_secs: idle_secs,
            })?;
            let watch = if signals_masked {
                let handle = server.shutdown_handle();
                chromata_signal::watch_termination(move |_sig| handle.request())
            } else {
                None
            };
            // The banner goes out before the blocking wait (and is
            // flushed) so scripts can scrape an OS-assigned port.
            println!("serve: listening on {}", server.local_addr());
            if watch.is_some() {
                println!("serve: SIGTERM/SIGINT trigger graceful shutdown with persistence");
            }
            if let Some(loaded) = server.loaded() {
                println!(
                    "serve: warm-started {} artifact(s) ({} rejected, {} torn, {} corrupt)",
                    loaded.restored,
                    loaded.rejected_snapshots,
                    loaded.torn_entries,
                    loaded.corrupt_entries
                );
            }
            let _ = std::io::stdout().flush();
            let summary = server.wait();
            if let Some(watch) = watch {
                watch.stop();
            }
            Ok(format!("{summary}\n"))
        }
        Command::Request {
            addr,
            op,
            task,
            act_fallback,
            budget_ms,
            max_states,
            retry,
            json,
        } => {
            use serde_json::Value;
            let line = if op == "analyze" {
                let spec = task.ok_or_else(|| CliError("request needs a task".to_owned()))?;
                // A registry name travels by name; anything else is
                // loaded locally and shipped inline.
                let task_value = if registry::find(&spec).is_some() {
                    Value::String(spec)
                } else {
                    serde_json::to_value(&load_task(&spec)?)
                        .map_err(|e| CliError(format!("serialize task: {e}")))?
                };
                let mut fields = vec![
                    ("op", Value::String("analyze".to_owned())),
                    ("task", task_value),
                ];
                if act_fallback > 0 {
                    fields.push(("act_fallback", Value::UInt(act_fallback as u64)));
                }
                if let Some(ms) = budget_ms {
                    fields.push(("budget_ms", Value::UInt(ms)));
                }
                if let Some(n) = max_states {
                    fields.push(("max_states", Value::UInt(n as u64)));
                }
                serde_json::to_string(&json_object(fields))
                    .map_err(|e| CliError(format!("serialize request: {e}")))?
            } else {
                serde_json::to_string(&json_object(vec![("op", Value::String(op))]))
                    .map_err(|e| CliError(format!("serialize request: {e}")))?
            };
            let mut response = crate::serve::request_line(&addr, &line, 120)?;
            // Overload rejections carry a `retry_after_ms` hint; within
            // the --retry attempt budget, honor it (capped exponential
            // backoff when a response carries none) and resend. Final
            // verdicts — including budget-exhaustion UNKNOWNs, which
            // carry an evidence digest — are never retried.
            let mut attempt = 0u32;
            while attempt < retry {
                let Some(hint) = crate::wire::overload_retry_hint_of(&response) else {
                    break;
                };
                std::thread::sleep(std::time::Duration::from_millis(
                    crate::wire::retry_backoff_ms(attempt, Some(hint)),
                ));
                response = crate::serve::request_line(&addr, &line, 120)?;
                attempt += 1;
            }
            if json {
                return Ok(format!("{response}\n"));
            }
            summarize_response(&response)
        }
        Command::Cache { action, cache_dir } => {
            let config = CacheDirConfig::resolve(cache_dir);
            let Some(dir) = config.dir() else {
                return Err(CliError(
                    "cache needs a directory: pass --cache-dir DIR or set CHROMATA_CACHE_DIR"
                        .to_owned(),
                ));
            };
            let mut out = String::new();
            match action {
                CacheAction::Clear => {
                    let removed = clear_cache_dir(dir).map_err(|e| CliError(e.to_string()))?;
                    let _ = writeln!(
                        out,
                        "removed {removed} snapshot file(s) from {}",
                        dir.display()
                    );
                }
                CacheAction::Stats | CacheAction::Verify => {
                    let a = audit_cache_dir(dir);
                    let _ = writeln!(
                        out,
                        "{:<13} {:<8} entries {:>5}  capacity {:>5}  hits {:>6}  misses {:>6}  \
                         evictions {:>6}  torn {:>3}  corrupt {:>3}",
                        a.kind.name(),
                        a.status.label(),
                        a.entries,
                        a.capacity,
                        a.hits,
                        a.misses,
                        a.evictions,
                        a.torn_entries,
                        a.corrupt_entries
                    );
                    for issue in &a.issues {
                        let _ = writeln!(out, "    issue: {issue}");
                    }
                    if action == CacheAction::Verify {
                        if !a.is_clean() {
                            let _ = writeln!(
                                out,
                                "verify: FAILED — the snapshot is rejected, torn or corrupt"
                            );
                            return Err(CliError(out));
                        }
                        let _ = writeln!(out, "verify: OK — every snapshot intact");
                    }
                }
            }
            Ok(out)
        }
        Command::Lint {
            paths,
            deny_all,
            json,
        } => {
            // chromata-lint: allow(D2): the lint subcommand resolves the workspace from the invocation directory — tooling, not decision code
            let cwd = std::env::current_dir()
                .map_err(|e| CliError(format!("cannot read working directory: {e}")))?;
            let root = chromata_xtask::workspace::find_root(&cwd).ok_or_else(|| {
                CliError(format!("no workspace root found above {}", cwd.display()))
            })?;
            let config = if deny_all {
                chromata_xtask::Config::deny_all()
            } else {
                chromata_xtask::Config::default()
            };
            let report = if paths.is_empty() {
                chromata_xtask::lint_workspace(&root, &config)
            } else {
                chromata_xtask::lint_paths(&root, &paths, &config)
            }
            .map_err(|e| CliError(format!("lint failed: {e}")))?;
            if json {
                // The JSON document is the contract either way: CI
                // parses it from stdout on success and from the error
                // text on failure.
                if report.failed() {
                    return Err(CliError(report.to_json()));
                }
                return Ok(format!("{}\n", report.to_json()));
            }
            if report.failed() {
                return Err(CliError(format!("{report}")));
            }
            Ok(format!("{report}\n"))
        }
    }
}

const HELP: &str = "chromata — wait-free solvability of three-process tasks (PODC 2025)

USAGE:
    chromata <COMMAND>

COMMANDS:
    list                         list the built-in task library
    analyze <task> [--act-fallback N]
                                 run the paper's decision pipeline
    explain <task> [--act-fallback N] [--json] [--cache-dir DIR]
                                 verdict plus its evidence chain: deciding
                                 stage, per-stage work/wall-clock counters,
                                 and verdict-cache statistics
    batch [--act-fallback N] [--cache-dir DIR] [--digests] [task...]
                                 analyze many tasks (whole library if none
                                 named) on one shared engine
    inspect <task>               complex statistics, homology, LAP counts
    act <task> [--rounds N]      run the Herlihy–Shavit ACT baseline
    export <task> [-o FILE]      dump a library task as JSON
    verify-fig7 <task> [--max-states N]
                                 exhaustively verify the Figure 7 algorithm
    decide <task> [--budget-ms N] [--max-states N] [--act-rounds N] [--max-crashes N]
           [--cache-dir DIR]
                                 governed verdict + crash-tolerant wait-freedom
                                 check; budget exhaustion degrades to a
                                 structured UNKNOWN with a replayable trace
    serve [--addr A] [--threads N] [--admission N] [--queue N] [--max-payload N]
          [--budget-ms N] [--cache-dir DIR] [--persist-secs N] [--idle-secs N]
                                 long-lived verdict daemon: newline-delimited
                                 JSON over TCP against one shared warm engine;
                                 overload degrades to UNKNOWN with a
                                 retry hint, never a dropped connection
    request [--addr A] [--op OP] [--act-fallback N] [--budget-ms N]
            [--max-states N] [--retry N] [--json] [task]
                                 one-shot client for a running serve
                                 (ops: analyze, ping, stats, persist, shutdown);
                                 --retry resends after overload rejections,
                                 honoring the server's retry_after_ms hint
    cache <stats|verify|clear> [--cache-dir DIR]
                                 offline audit / maintenance of a durable
                                 verdict-cache directory; `verify` exits nonzero
                                 on any rejected, torn or corrupt snapshot
    fuzz [--seed N] [--rounds K] [--act-fallback N] [task...]
                                 mutation-fuzzing campaign: analyze K seeded
                                 near-duplicate mutants per base task on one
                                 engine, then report warm-vs-cold
                                 evidence-digest parity samples
    chaos [--seed N] [--rounds K] [--faults LIST] [--cache-dir DIR]
                                 randomized end-to-end fault campaign: replay
                                 a seeded mutant stream through a live serve
                                 with injected persist/net/signal faults,
                                 asserting verdict + digest parity against a
                                 clean oracle run; nonzero exit on any breach
    lint [--deny-all] [--json] [PATH...]
                                 run the workspace static-analysis rules
                                 (same engine as `cargo xtask lint`);
                                 --json emits the stable machine format
    help                         show this message

<task> is a library name (see `list`) or a path to a task JSON file.
--cache-dir (or the CHROMATA_CACHE_DIR environment variable) makes the
verdict cache durable: its snapshot is written atomically after each run
and reloaded — tolerating torn or corrupt records — on the next one.
";

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &[&str]) -> Vec<String> {
        s.iter().map(|x| (*x).to_owned()).collect()
    }

    #[test]
    fn parse_basic_commands() {
        assert_eq!(parse(&args(&["list"])).unwrap(), Command::List);
        assert_eq!(parse(&args(&[])).unwrap(), Command::Help);
        assert_eq!(parse(&args(&["--help"])).unwrap(), Command::Help);
        assert_eq!(
            parse(&args(&["analyze", "hourglass"])).unwrap(),
            Command::Analyze {
                task: "hourglass".into(),
                act_fallback: 0
            }
        );
        assert_eq!(
            parse(&args(&["act", "consensus", "--rounds", "2"])).unwrap(),
            Command::Act {
                task: "consensus".into(),
                rounds: 2
            }
        );
    }

    #[test]
    fn parse_errors() {
        assert!(parse(&args(&["frobnicate"])).is_err());
        assert!(parse(&args(&["analyze"])).is_err());
        assert!(parse(&args(&["act", "x", "--rounds", "many"])).is_err());
        assert!(parse(&args(&["analyze", "x", "--bogus"])).is_err());
        assert!(parse(&args(&["lint", "--frobnicate"])).is_err());
    }

    #[test]
    fn parse_lint() {
        assert_eq!(
            parse(&args(&["lint"])).unwrap(),
            Command::Lint {
                paths: vec![],
                deny_all: false,
                json: false
            }
        );
        assert_eq!(
            parse(&args(&[
                "lint",
                "--deny-all",
                "--json",
                "crates/core/src/pipeline.rs"
            ]))
            .unwrap(),
            Command::Lint {
                paths: vec!["crates/core/src/pipeline.rs".into()],
                deny_all: true,
                json: true
            }
        );
    }

    #[test]
    fn run_lint_on_a_clean_file() {
        let out = run(Command::Lint {
            paths: vec!["crates/topology/src/govern.rs".into()],
            deny_all: true,
            json: false,
        })
        .unwrap();
        assert!(out.contains("1 file(s) scanned: 0 error(s)"), "{out}");
        // The machine format carries the same verdict and parses as a
        // flat JSON object with the documented top-level keys.
        let out = run(Command::Lint {
            paths: vec!["crates/topology/src/govern.rs".into()],
            deny_all: true,
            json: true,
        })
        .unwrap();
        assert!(out.starts_with("{\"schema_version\":1,"), "{out}");
        assert!(out.contains("\"errors\":0"), "{out}");
        assert!(out.contains("\"diagnostics\":["), "{out}");
    }

    #[test]
    fn run_lint_reports_seeded_violations() {
        // A temp file inside the workspace would pollute the tree, so the
        // failure path is exercised through the library instead: the CLI
        // surface is `Err` iff `Report::failed()`.
        let root =
            chromata_xtask::workspace::find_root(std::path::Path::new(env!("CARGO_MANIFEST_DIR")))
                .unwrap();
        let report =
            chromata_xtask::lint_workspace(&root, &chromata_xtask::Config::deny_all()).unwrap();
        assert!(!report.failed(), "workspace must lint clean: {report}");
    }

    #[test]
    fn run_list_and_help() {
        let list = run(Command::List).unwrap();
        assert!(list.contains("hourglass"));
        assert!(list.contains("pinwheel"));
        let help = run(Command::Help).unwrap();
        assert!(help.contains("USAGE"));
    }

    #[test]
    fn run_analyze_library_tasks() {
        let out = run(Command::Analyze {
            task: "hourglass".into(),
            act_fallback: 0,
        })
        .unwrap();
        assert!(out.contains("UNSOLVABLE"), "{out}");
        let out = run(Command::Analyze {
            task: "identity".into(),
            act_fallback: 0,
        })
        .unwrap();
        assert!(out.contains("SOLVABLE"), "{out}");
    }

    #[test]
    fn parse_explain_and_batch() {
        assert_eq!(
            parse(&args(&["explain", "consensus", "--json"])).unwrap(),
            Command::Explain {
                cache_dir: None,
                task: "consensus".into(),
                act_fallback: 0,
                json: true
            }
        );
        assert_eq!(
            parse(&args(&["explain", "consensus", "--act-fallback", "2"])).unwrap(),
            Command::Explain {
                cache_dir: None,
                task: "consensus".into(),
                act_fallback: 2,
                json: false
            }
        );
        assert!(parse(&args(&["explain"])).is_err());
        assert_eq!(
            parse(&args(&["batch", "hourglass", "consensus"])).unwrap(),
            Command::Batch {
                cache_dir: None,
                tasks: vec!["hourglass".into(), "consensus".into()],
                act_fallback: 0,
                digests: false
            }
        );
        assert_eq!(
            parse(&args(&["batch"])).unwrap(),
            Command::Batch {
                cache_dir: None,
                tasks: vec![],
                act_fallback: 0,
                digests: false
            }
        );
        assert!(parse(&args(&["batch", "--frobnicate"])).is_err());
    }

    #[test]
    fn parse_fuzz() {
        assert_eq!(
            parse(&args(&[
                "fuzz",
                "--seed",
                "42",
                "--rounds",
                "9",
                "consensus"
            ]))
            .unwrap(),
            Command::Fuzz {
                tasks: vec!["consensus".into()],
                seed: 42,
                rounds: 9,
                act_fallback: 0,
            }
        );
        assert_eq!(
            parse(&args(&["fuzz"])).unwrap(),
            Command::Fuzz {
                tasks: vec![],
                seed: 1,
                rounds: 16,
                act_fallback: 0,
            }
        );
        assert!(parse(&args(&["fuzz", "--rounds", "0"])).is_err());
        assert!(parse(&args(&["fuzz", "--frobnicate"])).is_err());
    }

    #[test]
    fn parse_chaos() {
        assert_eq!(
            parse(&args(&["chaos"])).unwrap(),
            Command::Chaos {
                seed: 1,
                rounds: 20,
                faults: chromata::ALL_FAULT_KINDS.to_vec(),
                cache_dir: None,
            }
        );
        assert_eq!(
            parse(&args(&[
                "chaos",
                "--seed",
                "9",
                "--rounds",
                "50",
                "--faults",
                "persist,net",
                "--cache-dir",
                "/tmp/chaos",
            ]))
            .unwrap(),
            Command::Chaos {
                seed: 9,
                rounds: 50,
                faults: vec![chromata::FaultKind::Persist, chromata::FaultKind::Net],
                cache_dir: Some(PathBuf::from("/tmp/chaos")),
            }
        );
        assert!(parse(&args(&["chaos", "--rounds", "0"])).is_err());
        assert!(parse(&args(&["chaos", "--faults", "gamma-rays"])).is_err());
        assert!(parse(&args(&["chaos", "--frobnicate"])).is_err());
    }

    #[test]
    fn run_fuzz_reports_reuse_and_digest_parity() {
        let out = run(Command::Fuzz {
            tasks: vec!["consensus".into(), "identity".into()],
            seed: 7,
            rounds: 4,
            act_fallback: 0,
        })
        .unwrap();
        assert!(
            out.contains("2 base task(s) x 4 mutant(s) = 8 analyses"),
            "{out}"
        );
        // Every sampled warm digest reproduces cold, and the campaign
        // says so in a greppable summary line.
        assert!(out.contains("digest-parity "), "{out}");
        assert!(!out.contains("MISMATCH"), "{out}");
        let parity_line = out
            .lines()
            .find(|l| l.starts_with("digest parity:"))
            .expect("a parity summary");
        assert!(parity_line.ends_with("ok"), "{out}");
    }

    #[test]
    fn run_explain_prints_the_evidence_chain() {
        let out = run(Command::Explain {
            cache_dir: None,
            task: "consensus".into(),
            act_fallback: 0,
            json: false,
        })
        .unwrap();
        assert!(out.contains("verdict: UNSOLVABLE"), "{out}");
        assert!(out.contains("decided by: homology"), "{out}");
        for stage in [
            "canonicalize",
            "split",
            "link-graphs",
            "presentations",
            "homology",
        ] {
            assert!(out.contains(stage), "missing {stage}: {out}");
        }
        assert!(out.contains("evidence digest:"), "{out}");
        assert!(out.contains("stage caches:"), "{out}");
    }

    #[test]
    fn run_explain_json_is_machine_readable() {
        let out = run(Command::Explain {
            cache_dir: None,
            task: "consensus".into(),
            act_fallback: 0,
            json: true,
        })
        .unwrap();
        use serde_json::Value;
        let doc: Value = serde_json::from_str(&out).unwrap();
        // The registry's `consensus` entry builds the 3-process task.
        assert_eq!(doc["task"], Value::String("consensus-3".into()));
        assert_eq!(doc["decided_by"], Value::String("homology".into()));
        let Value::Array(stages) = &doc["stages"] else {
            panic!("stages must be an array: {out}");
        };
        assert_eq!(stages[0]["stage"], Value::String("canonicalize".into()));
        assert!(stages
            .iter()
            .any(|s| s["stage"] == Value::String("homology".into())));
        // No stage carries per-branch reuse telemetry, and the verdict
        // cache is the only cache.
        for s in stages {
            let Value::Object(fields) = s else {
                panic!("stage must be an object: {out}");
            };
            assert!(
                fields.iter().all(|(k, _)| k != "reused" && k != "subkeys"),
                "stage carries reuse telemetry: {out}"
            );
        }
        let Value::Array(caches) = &doc["stage_caches"] else {
            panic!("stage_caches must be an array: {out}");
        };
        assert_eq!(caches.len(), 1, "{out}");
        assert_eq!(caches[0]["cache"], Value::String("verdict".into()));
        let Value::String(digest) = &doc["evidence_digest"] else {
            panic!("digest must be a string: {out}");
        };
        assert_eq!(digest.len(), 16);
    }

    #[test]
    fn run_batch_covers_named_tasks() {
        let out = run(Command::Batch {
            cache_dir: None,
            tasks: vec!["identity".into(), "hourglass".into()],
            act_fallback: 0,
            digests: false,
        })
        .unwrap();
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 2, "{out}");
        assert!(
            lines[0].starts_with("identity") && lines[0].contains("SOLVABLE"),
            "{out}"
        );
        assert!(
            lines[1].starts_with("hourglass") && lines[1].contains("UNSOLVABLE"),
            "{out}"
        );
    }

    #[test]
    fn run_act_baseline() {
        let out = run(Command::Act {
            task: "consensus-2".into(),
            rounds: 1,
        })
        .unwrap();
        assert!(out.contains("INCONCLUSIVE"), "{out}");
    }

    #[test]
    fn export_and_reload_roundtrip() {
        let dir = std::env::temp_dir().join("chromata-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hourglass.json");
        run(Command::Export {
            task: "hourglass".into(),
            output: Some(path.clone()),
        })
        .unwrap();
        let out = run(Command::Analyze {
            task: path.display().to_string(),
            act_fallback: 0,
        })
        .unwrap();
        assert!(out.contains("UNSOLVABLE"), "{out}");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn run_inspect() {
        let out = run(Command::Inspect {
            task: "hourglass".into(),
        })
        .unwrap();
        assert!(out.contains("LAPs: 1"), "{out}");
        assert!(out.contains("link-connected: false"), "{out}");
    }

    #[test]
    fn verify_fig7_rejects_non_link_connected() {
        let err = run(Command::VerifyFig7 {
            task: "hourglass".into(),
            max_states: 1000,
        })
        .unwrap_err();
        assert!(err.0.contains("not link-connected"), "{err}");
    }

    #[test]
    fn parse_decide_flags() {
        assert_eq!(
            parse(&args(&[
                "decide",
                "identity",
                "--budget-ms",
                "500",
                "--max-states",
                "100",
                "--act-rounds",
                "1",
                "--max-crashes",
                "1",
            ]))
            .unwrap(),
            Command::Decide {
                cache_dir: None,
                task: "identity".into(),
                budget_ms: Some(500),
                max_states: 100,
                act_rounds: 1,
                max_crashes: 1,
            }
        );
        assert!(parse(&args(&["decide"])).is_err());
        assert!(parse(&args(&["decide", "x", "--budget-ms", "soon"])).is_err());
    }

    #[test]
    fn budget_ms_parses_the_full_u64_range() {
        // Regression: the flag used to go through `usize` and an `as
        // u64` cast, which truncates on 32-bit targets and hides
        // overflow. u64::MAX must parse exactly...
        let cmd = parse(&args(&[
            "decide",
            "x",
            "--budget-ms",
            "18446744073709551615",
        ]))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Decide {
                cache_dir: None,
                task: "x".into(),
                budget_ms: Some(u64::MAX),
                max_states: 5_000_000,
                act_rounds: 2,
                max_crashes: 2,
            }
        );
        // ...and u64::MAX + 1 must be an explicit out-of-range error,
        // not a wrapped or truncated value.
        let err = parse(&args(&[
            "decide",
            "x",
            "--budget-ms",
            "18446744073709551616",
        ]))
        .unwrap_err();
        assert!(err.0.contains("--budget-ms"), "{err}");
        assert!(err.0.contains("out of range"), "{err}");
        let err = parse(&args(&["serve", "--budget-ms", "18446744073709551616"])).unwrap_err();
        assert!(err.0.contains("out of range"), "{err}");
    }

    #[test]
    fn parse_serve_and_request() {
        assert_eq!(
            parse(&args(&["serve"])).unwrap(),
            Command::Serve {
                addr: "127.0.0.1:7437".into(),
                threads: 0,
                admission: None,
                queue: None,
                max_payload: crate::wire::DEFAULT_MAX_PAYLOAD,
                budget_ms: None,
                cache_dir: None,
                persist_secs: 30,
                idle_secs: 30,
            }
        );
        assert_eq!(
            parse(&args(&[
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--threads",
                "2",
                "--admission",
                "0",
                "--queue",
                "8",
                "--budget-ms",
                "250",
                "--cache-dir",
                "/tmp/c",
                "--persist-secs",
                "5",
            ]))
            .unwrap(),
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                threads: 2,
                admission: Some(0),
                queue: Some(8),
                max_payload: crate::wire::DEFAULT_MAX_PAYLOAD,
                budget_ms: Some(250),
                cache_dir: Some(PathBuf::from("/tmp/c")),
                persist_secs: 5,
                idle_secs: 30,
            }
        );
        assert!(parse(&args(&["serve", "--frobnicate"])).is_err());
        assert!(parse(&args(&["worker", "--addr", "127.0.0.1:0"])).is_err());
        assert_eq!(
            parse(&args(&[
                "request",
                "hourglass",
                "--budget-ms",
                "100",
                "--json"
            ]))
            .unwrap(),
            Command::Request {
                addr: "127.0.0.1:7437".into(),
                op: "analyze".into(),
                task: Some("hourglass".into()),
                act_fallback: 0,
                budget_ms: Some(100),
                max_states: None,
                retry: 0,
                json: true,
            }
        );
        assert_eq!(
            parse(&args(&["request", "--op", "ping", "--retry", "5"])).unwrap(),
            Command::Request {
                addr: "127.0.0.1:7437".into(),
                op: "ping".into(),
                task: None,
                act_fallback: 0,
                budget_ms: None,
                max_states: None,
                retry: 5,
                json: false,
            }
        );
        // analyze needs a task; control ops refuse one.
        assert!(parse(&args(&["request"])).is_err());
        assert!(parse(&args(&["request", "--op", "ping", "hourglass"])).is_err());
        assert!(parse(&args(&["request", "a", "b"])).is_err());
    }

    #[test]
    fn parse_cache_dir_flags() {
        assert_eq!(
            parse(&args(&["decide", "identity", "--cache-dir", "/tmp/c"])).unwrap(),
            Command::Decide {
                task: "identity".into(),
                budget_ms: None,
                max_states: 5_000_000,
                act_rounds: 2,
                max_crashes: 2,
                cache_dir: Some(PathBuf::from("/tmp/c")),
            }
        );
        assert_eq!(
            parse(&args(&["explain", "identity", "--cache-dir", "/tmp/c"])).unwrap(),
            Command::Explain {
                task: "identity".into(),
                act_fallback: 0,
                json: false,
                cache_dir: Some(PathBuf::from("/tmp/c")),
            }
        );
        assert_eq!(
            parse(&args(&["batch", "identity", "--cache-dir", "/tmp/c"])).unwrap(),
            Command::Batch {
                tasks: vec!["identity".into()],
                act_fallback: 0,
                cache_dir: Some(PathBuf::from("/tmp/c")),
                digests: false,
            }
        );
        assert!(parse(&args(&["decide", "identity", "--cache-dir"])).is_err());
    }

    #[test]
    fn parse_cache_subcommand() {
        assert_eq!(
            parse(&args(&["cache", "stats", "--cache-dir", "/tmp/c"])).unwrap(),
            Command::Cache {
                action: CacheAction::Stats,
                cache_dir: Some(PathBuf::from("/tmp/c")),
            }
        );
        assert_eq!(
            parse(&args(&["cache", "verify"])).unwrap(),
            Command::Cache {
                action: CacheAction::Verify,
                cache_dir: None,
            }
        );
        assert_eq!(
            parse(&args(&["cache", "clear", "--cache-dir", "/tmp/c"])).unwrap(),
            Command::Cache {
                action: CacheAction::Clear,
                cache_dir: Some(PathBuf::from("/tmp/c")),
            }
        );
        assert!(parse(&args(&["cache"])).is_err());
        assert!(parse(&args(&["cache", "defrag"])).is_err());
    }

    #[test]
    fn cache_subcommand_end_to_end() {
        let dir = std::env::temp_dir().join(format!("chromata-cli-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);

        // Without a directory (flag or env) the command refuses to guess.
        let err = run(Command::Cache {
            action: CacheAction::Stats,
            cache_dir: None,
        })
        .unwrap_err();
        assert!(err.0.contains("cache needs a directory"), "{err}");

        // A decide with --cache-dir persists snapshots...
        let out = run(Command::Decide {
            task: "identity".into(),
            budget_ms: None,
            max_states: 10_000,
            act_rounds: 1,
            max_crashes: 1,
            cache_dir: Some(dir.clone()),
        })
        .unwrap();
        assert!(out.contains("cache: persisted"), "{out}");

        // ...which stats and verify then see as intact.
        let stats = run(Command::Cache {
            action: CacheAction::Stats,
            cache_dir: Some(dir.clone()),
        })
        .unwrap();
        assert!(stats.contains("verdict"), "{stats}");
        let verify = run(Command::Cache {
            action: CacheAction::Verify,
            cache_dir: Some(dir.clone()),
        })
        .unwrap();
        assert!(verify.contains("verify: OK"), "{verify}");

        // Corrupt one snapshot byte: verify must fail (nonzero exit).
        let snap = dir.join("verdict.snap");
        let mut bytes = std::fs::read(&snap).unwrap();
        let last = bytes.len() - 3;
        bytes[last] ^= 0x01;
        std::fs::write(&snap, &bytes).unwrap();
        let err = run(Command::Cache {
            action: CacheAction::Verify,
            cache_dir: Some(dir.clone()),
        })
        .unwrap_err();
        assert!(err.0.contains("verify: FAILED"), "{err}");

        // Clear removes the snapshots; verify is clean again.
        let cleared = run(Command::Cache {
            action: CacheAction::Clear,
            cache_dir: Some(dir.clone()),
        })
        .unwrap();
        assert!(cleared.contains("removed"), "{cleared}");
        let verify = run(Command::Cache {
            action: CacheAction::Verify,
            cache_dir: Some(dir.clone()),
        })
        .unwrap();
        assert!(verify.contains("verify: OK"), "{verify}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn decide_starved_budget_degrades_to_structured_unknown() {
        // The smoke-test contract: a starved state budget must NOT panic
        // or error out — it answers UNKNOWN (exit 0) with a structured
        // reason containing a replayable trace.
        let out = run(Command::Decide {
            cache_dir: None,
            task: "identity".into(),
            budget_ms: None,
            max_states: 50,
            act_rounds: 0,
            max_crashes: 2,
        })
        .unwrap();
        assert!(out.contains("verdict: SOLVABLE"), "{out}");
        assert!(out.contains("wait-freedom: UNKNOWN"), "{out}");
        assert!(out.contains("state budget"), "{out}");
        assert!(out.contains("trace:"), "{out}");
    }

    #[test]
    fn decide_constant_verifies_wait_freedom() {
        let out = run(Command::Decide {
            cache_dir: None,
            task: "constant".into(),
            budget_ms: None,
            max_states: 2_000_000,
            act_rounds: 0,
            max_crashes: 1,
        })
        .unwrap();
        assert!(out.contains("verdict: SOLVABLE"), "{out}");
        assert!(out.contains("wait-freedom: VERIFIED"), "{out}");
        assert!(out.contains("with crashes"), "{out}");
    }

    #[test]
    fn decide_unsolvable_skips_wait_freedom() {
        let out = run(Command::Decide {
            cache_dir: None,
            task: "hourglass".into(),
            budget_ms: None,
            max_states: 1000,
            act_rounds: 0,
            max_crashes: 2,
        })
        .unwrap();
        assert!(out.contains("verdict: UNSOLVABLE"), "{out}");
        assert!(!out.contains("wait-freedom"), "{out}");
    }

    #[test]
    fn unknown_task_reported() {
        let err = load_task("definitely-not-a-task").unwrap_err();
        assert!(err.0.contains("neither a library task"));
    }
}
