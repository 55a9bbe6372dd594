//! End-to-end tests for `chromata serve`: the acceptance criteria of
//! the verdict-service PR.
//!
//! 1. **Digest parity** — K concurrent clients receive verdicts and
//!    evidence-chain digests byte-identical to sequential cold
//!    single-shot runs.
//! 2. **Overload semantics** — a deliberately overloaded server (zero
//!    analysis slots, or a zero-length pending queue) answers
//!    `verdict: "UNKNOWN"` with a `retry_after_ms` hint within a
//!    bounded deadline; it never queues unboundedly or silently drops
//!    a connection.
//! 3. **Malformed-request resilience** — fuzz-style truncated/mutated
//!    request bytes get structured error responses; no worker dies;
//!    subsequent requests on the same and on fresh connections succeed.
//! 4. **Durability** — analyses persist on graceful shutdown and a
//!    warm restart restores them.
//!
//! The servers bind loopback port 0 (OS-assigned) and run in-process,
//! each on an engine of its own, so tests share no cached state.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use chromata::{Budget, CancelToken, Engine, PipelineOptions};
use chromata_cli::serve::{request_line, ServeOptions, Server};
use chromata_task::library::{hourglass, identity_task, pinwheel, two_set_agreement};
use serde_json::Value;

/// A server on a fresh engine.
fn start(opts: ServeOptions) -> Server {
    Server::start_with(Arc::new(Engine::new()), opts).unwrap()
}

fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("chromata-serve-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Loopback test server: port 0, persistence off unless asked.
fn options() -> ServeOptions {
    ServeOptions {
        addr: "127.0.0.1:0".to_owned(),
        threads: 4,
        persist_secs: 0,
        cache_dir: None,
        idle_timeout_secs: 10,
        ..ServeOptions::default()
    }
}

fn json_line(raw: &str) -> Value {
    serde_json::from_str(raw).unwrap_or_else(|e| panic!("bad response line ({e}): {raw}"))
}

/// Reads a numeric field; the vendored parser yields `Int` for
/// non-negative integers, so both variants are accepted.
fn uint_field(doc: &Value, key: &str) -> Option<u64> {
    match &doc[key] {
        Value::UInt(n) => Some(*n),
        Value::Int(n) if *n >= 0 => Some(*n as u64),
        _ => None,
    }
}

fn str_field<'a>(doc: &'a Value, key: &str) -> &'a str {
    match &doc[key] {
        Value::String(s) => s.as_str(),
        other => panic!("field {key} is {other:?}, not a string: {doc:?}"),
    }
}

/// Registry names and builders for the overlapping task set. The names
/// must match `chromata list` so requests can travel by name.
fn task_set() -> Vec<(&'static str, chromata_task::Task)> {
    vec![
        ("hourglass", hourglass()),
        ("2-set-agreement", two_set_agreement()),
        ("identity", identity_task(3)),
        ("pinwheel", pinwheel()),
    ]
}

#[test]
fn concurrent_clients_match_sequential_cold_digests() {
    let tasks = task_set();

    // Sequential cold single-shot baseline, each task on a fresh engine.
    let baseline: Vec<(String, String)> = tasks
        .iter()
        .map(|(_, t)| {
            let tasks = std::slice::from_ref(t);
            let options = PipelineOptions::default();
            let a =
                &Engine::new().analyze(tasks, options, &Budget::unlimited(), &CancelToken::new())
                    [0];
            (
                a.verdict.to_string(),
                format!("{:016x}", a.evidence.deterministic_digest()),
            )
        })
        .collect();

    let server = start(options());
    let addr = server.local_addr().to_string();

    const CLIENTS: usize = 8;
    let answers: Vec<Vec<(usize, String, String)>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let addr = addr.clone();
                let tasks = &tasks;
                scope.spawn(move || {
                    let mut out = Vec::new();
                    for offset in 0..tasks.len() {
                        let i = (client + offset) % tasks.len();
                        let req = format!(r#"{{"task":"{}"}}"#, tasks[i].0);
                        let raw = request_line(&addr, &req, 60).unwrap();
                        let doc = json_line(&raw);
                        assert_eq!(str_field(&doc, "status"), "ok", "{raw}");
                        out.push((
                            i,
                            str_field(&doc, "detail").to_owned(),
                            str_field(&doc, "evidence_digest").to_owned(),
                        ));
                    }
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    for (client, answer) in answers.iter().enumerate() {
        for (i, detail, digest) in answer {
            assert_eq!(
                (detail, digest),
                (&baseline[*i].0, &baseline[*i].1),
                "client {client}, task {}: served answer diverged from the \
                 sequential cold run",
                tasks[*i].0
            );
        }
    }

    server.shutdown();
    let summary = server.wait();
    assert!(summary.contains("stopped after"), "{summary}");
}

#[test]
fn zero_slot_server_answers_unknown_with_retry_hint_in_bounded_time() {
    let server = start(ServeOptions {
        analysis_slots: Some(0),
        ..options()
    });
    let addr = server.local_addr().to_string();

    let started = Instant::now();
    let raw = request_line(&addr, r#"{"task":"hourglass"}"#, 60).unwrap();
    let elapsed = started.elapsed();
    let doc = json_line(&raw);
    assert_eq!(str_field(&doc, "status"), "ok", "{raw}");
    assert_eq!(str_field(&doc, "verdict"), "UNKNOWN", "{raw}");
    assert!(str_field(&doc, "reason").contains("overloaded"), "{raw}");
    assert!(
        uint_field(&doc, "retry_after_ms").is_some_and(|ms| ms > 0),
        "missing retry hint: {raw}"
    );
    // Bounded deadline: an admission reject must not sit in a queue.
    assert!(
        elapsed < Duration::from_secs(5),
        "reject took {elapsed:?} — overload degraded into latency"
    );

    // Control ops keep working on an overloaded server.
    let pong = json_line(&request_line(&addr, r#"{"op":"ping"}"#, 60).unwrap());
    assert_eq!(str_field(&pong, "status"), "ok");

    server.shutdown();
    let _ = server.wait();
}

#[test]
fn zero_queue_server_rejects_connections_with_a_response_not_a_drop() {
    let server = start(ServeOptions {
        queue: Some(0),
        ..options()
    });
    let addr = server.local_addr().to_string();

    // Every connection is over the connection-level bound: the accept
    // thread itself must answer (not silently close, not hang).
    for _ in 0..3 {
        let raw = request_line(&addr, r#"{"task":"hourglass"}"#, 60);
        // The accept thread writes the overload line immediately on
        // accept; depending on timing the client may see it before or
        // after its own write, but it must see a full response line.
        let raw = raw.unwrap();
        let doc = json_line(&raw);
        assert_eq!(str_field(&doc, "verdict"), "UNKNOWN", "{raw}");
        assert!(str_field(&doc, "reason").contains("queue"), "{raw}");
        assert!(
            uint_field(&doc, "retry_after_ms").is_some_and(|ms| ms > 0),
            "{raw}"
        );
    }

    server.shutdown();
    let _ = server.wait();
}

#[test]
fn budget_starved_request_degrades_to_unknown_with_retry_hint() {
    let server = start(options());
    let addr = server.local_addr().to_string();

    // An already-elapsed deadline trips the pre-tier budget guard:
    // structured UNKNOWN, decided by "budget", with a retry hint.
    let raw = request_line(&addr, r#"{"task":"pinwheel","budget_ms":0}"#, 60).unwrap();
    let doc = json_line(&raw);
    assert_eq!(str_field(&doc, "status"), "ok", "{raw}");
    assert_eq!(str_field(&doc, "verdict"), "UNKNOWN", "{raw}");
    assert_eq!(str_field(&doc, "decided_by"), "budget", "{raw}");
    assert!(
        uint_field(&doc, "retry_after_ms").is_some_and(|ms| ms >= 50),
        "missing retry hint: {raw}"
    );

    // The same task with an honest budget then decides for real.
    let raw = request_line(&addr, r#"{"task":"pinwheel"}"#, 60).unwrap();
    let doc = json_line(&raw);
    assert_ne!(str_field(&doc, "verdict"), "UNKNOWN", "{raw}");

    server.shutdown();
    let _ = server.wait();
}

/// One keep-alive connection is fed every malformed shape in turn; each
/// must produce exactly one structured error line, and the connection
/// must still serve a valid request afterwards.
#[test]
fn malformed_requests_get_structured_errors_and_the_connection_survives() {
    let server = start(ServeOptions {
        max_payload: 4096,
        ..options()
    });
    let addr = server.local_addr().to_string();

    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    let mut reader = BufReader::new(stream);
    let mut exchange = |request: &str| -> Value {
        writer.write_all(request.as_bytes()).unwrap();
        writer.write_all(b"\n").unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(!line.trim().is_empty(), "no response to {request:?}");
        json_line(line.trim_end())
    };

    let malformed = [
        "not json at all",
        r#"{"task":"hourglass""#,
        r#"[1,2,3]"#,
        r#""just a string""#,
        r#"{"task":"hourglass","frobnicate":1}"#,
        r#"{"op":"defrag"}"#,
        r#"{"task":42}"#,
        r#"{"task":"hourglass","budget_ms":-1}"#,
        r#"{"task":"no-such-task-anywhere"}"#,
        r#"{"task":{"bogus":true}}"#,
        r#"{"op":"ping","task":"hourglass"}"#,
    ];
    for request in malformed {
        let doc = exchange(request);
        assert_eq!(
            str_field(&doc, "status"),
            "error",
            "{request:?} should be a structured error"
        );
        assert!(
            !str_field(&doc, "error").is_empty(),
            "{request:?} error must name a cause"
        );
    }

    // An oversized payload is answered and the stream re-synchronized...
    let huge = format!(r#"{{"task":"{}"}}"#, "x".repeat(8192));
    let doc = exchange(&huge);
    assert_eq!(str_field(&doc, "status"), "error");
    assert!(str_field(&doc, "error").contains("byte limit"), "{doc:?}");

    // ...so the very same connection still serves a real request.
    let doc = exchange(r#"{"task":"hourglass"}"#);
    assert_eq!(str_field(&doc, "status"), "ok");
    assert_eq!(str_field(&doc, "verdict"), "UNSOLVABLE");

    server.shutdown();
    let _ = server.wait();
}

/// Deterministic xorshift byte-mutation fuzz: hundreds of corrupted
/// variants of a valid request are thrown at the live server on fresh
/// connections. Whatever happens — accepted, structured error, or a
/// connection the server gave up on — no worker may die: a final valid
/// request must still succeed.
#[test]
fn fuzzed_request_bytes_never_kill_a_worker() {
    let server = start(ServeOptions {
        threads: 2,
        max_payload: 4096,
        ..options()
    });
    let addr = server.local_addr().to_string();

    let valid = br#"{"task":"hourglass","act_fallback":1,"budget_ms":5000}"#;
    let mut state = 0x243f_6a88_85a3_08d3u64; // deterministic seed
    let mut next = move || {
        // xorshift64* — no vendored rand needed for corpus mutation.
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state = state.wrapping_mul(0x2545_f491_4f6c_dd1d);
        state
    };

    for round in 0..200 {
        let mut bytes = valid.to_vec();
        let r = next();
        match r % 4 {
            // Truncate anywhere, including mid-UTF-8 of the payload.
            0 => bytes.truncate((r as usize / 7) % bytes.len()),
            // Flip a byte.
            1 => {
                let i = (r as usize / 5) % bytes.len();
                bytes[i] ^= (r >> 32) as u8 | 1;
            }
            // Duplicate a slice of itself (nested garbage).
            2 => {
                let i = (r as usize / 3) % bytes.len();
                let tail = bytes[i..].to_vec();
                bytes.extend_from_slice(&tail);
            }
            // Drop a byte.
            _ => {
                let i = (r as usize / 11) % bytes.len();
                bytes.remove(i);
            }
        }
        let stream = TcpStream::connect(&addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(15)))
            .unwrap();
        let mut writer = stream.try_clone().unwrap();
        writer.write_all(&bytes).unwrap();
        // Half the rounds terminate the line; the rest slam the write
        // half shut mid-request (truncated-write shape).
        if round % 2 == 0 {
            writer.write_all(b"\n").unwrap();
        }
        writer.flush().unwrap();
        drop(writer.shutdown(std::net::Shutdown::Write));
        // Read whatever comes back (possibly nothing for a torn line
        // the server classified as unusable); the protocol promise is
        // per-response-line JSON, checked when a line does arrive.
        let mut response = String::new();
        let _ = BufReader::new(stream).read_to_string(&mut response);
        for line in response.lines().filter(|l| !l.trim().is_empty()) {
            let doc = json_line(line);
            assert!(
                matches!(&doc["status"], Value::String(s) if s == "ok" || s == "error"),
                "round {round}: non-protocol response {line:?}"
            );
        }
    }

    // Every worker survived the barrage: a fresh valid request decides.
    let raw = request_line(&addr, r#"{"task":"hourglass"}"#, 60).unwrap();
    let doc = json_line(&raw);
    assert_eq!(str_field(&doc, "status"), "ok", "{raw}");
    assert_eq!(str_field(&doc, "verdict"), "UNSOLVABLE", "{raw}");

    // And the stats op confirms coherent cache counters after the abuse.
    let stats = json_line(&request_line(&addr, r#"{"op":"stats"}"#, 60).unwrap());
    let Value::Array(caches) = &stats["caches"] else {
        panic!("stats must list caches: {stats:?}");
    };
    assert_eq!(caches.len(), 1, "the verdict cache is the only cache");
    for cache in caches {
        assert_eq!(cache["coherent"], Value::Bool(true), "{cache:?}");
    }

    server.shutdown();
    let _ = server.wait();
}

/// Slow-loris regression: a connection that sends half a request and
/// then stalls must be cut loose by the per-connection read deadline —
/// with a structured error naming the timeout — and the worker slot it
/// held must be free for the next honest client.
#[test]
fn a_stalled_half_request_is_timed_out_and_frees_its_worker_slot() {
    let server = start(ServeOptions {
        threads: 1, // one slot: the loris would starve the whole pool
        idle_timeout_secs: 1,
        ..options()
    });
    let addr = server.local_addr().to_string();

    // Half a request, no newline, then silence.
    let started = Instant::now();
    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut writer = stream.try_clone().unwrap();
    writer.write_all(br#"{"task":"hourg"#).unwrap();
    writer.flush().unwrap();
    let mut response = String::new();
    let _ = BufReader::new(stream).read_to_string(&mut response);
    let elapsed = started.elapsed();
    let line = response
        .lines()
        .find(|l| !l.trim().is_empty())
        .unwrap_or_else(|| panic!("the loris got no structured error before the close"));
    let doc = json_line(line);
    assert_eq!(str_field(&doc, "status"), "error", "{line}");
    assert!(str_field(&doc, "error").contains("timed out"), "{line}");
    assert!(
        elapsed >= Duration::from_millis(900) && elapsed < Duration::from_secs(8),
        "read deadline misfired: loris held the connection for {elapsed:?}"
    );

    // An idle connection that never sends a byte is closed silently —
    // nothing was promised a response.
    let idle = TcpStream::connect(&addr).unwrap();
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut nothing = String::new();
    let _ = BufReader::new(idle).read_to_string(&mut nothing);
    assert!(
        nothing.trim().is_empty(),
        "an idle connection should close without a response: {nothing:?}"
    );

    // The single worker slot survived both: a real request decides.
    let raw = request_line(&addr, r#"{"task":"hourglass"}"#, 60).unwrap();
    let doc = json_line(&raw);
    assert_eq!(str_field(&doc, "status"), "ok", "{raw}");
    assert_eq!(str_field(&doc, "verdict"), "UNSOLVABLE", "{raw}");

    server.shutdown();
    let _ = server.wait();
}

#[test]
fn graceful_shutdown_persists_and_warm_restart_restores() {
    let dir = scratch_dir("restart");

    let server = start(ServeOptions {
        cache_dir: Some(dir.clone()),
        persist_secs: 0, // exercise the shutdown-path persist, not the cadence
        ..options()
    });
    let addr = server.local_addr().to_string();
    let first = json_line(&request_line(&addr, r#"{"task":"hourglass"}"#, 60).unwrap());
    assert_eq!(str_field(&first, "status"), "ok");
    let digest = str_field(&first, "evidence_digest").to_owned();

    // Wire-level graceful shutdown: acknowledged, then the server exits
    // and the final persist writes snapshots.
    let ack = json_line(&request_line(&addr, r#"{"op":"shutdown"}"#, 60).unwrap());
    assert_eq!(str_field(&ack, "op"), "shutdown");
    let summary = server.wait();
    assert!(summary.contains("persisted"), "{summary}");
    assert!(dir.join("verdict.snap").exists(), "no verdict snapshot");

    // A restart on a fresh engine must restore from disk alone and
    // serve the byte-identical digest.
    let server = start(ServeOptions {
        cache_dir: Some(dir.clone()),
        persist_secs: 0,
        ..options()
    });
    assert!(
        server.loaded().is_some_and(|l| l.restored == 1),
        "the restart must restore exactly the one persisted verdict"
    );
    let addr = server.local_addr().to_string();
    let again = json_line(&request_line(&addr, r#"{"task":"hourglass"}"#, 60).unwrap());
    assert_eq!(str_field(&again, "evidence_digest"), digest);
    server.shutdown();
    let _ = server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn shutdown_abandons_a_stalled_connection_within_the_drain_deadline() {
    use chromata_cli::serve::SHUTDOWN_DRAIN_SECS;

    // A long idle timeout: a worker stuck reading this connection would
    // otherwise block `wait` far past any reasonable shutdown.
    let server = start(ServeOptions {
        idle_timeout_secs: 120,
        ..options()
    });
    let addr = server.local_addr().to_string();
    let ok = json_line(&request_line(&addr, r#"{"op":"ping"}"#, 30).unwrap());
    assert_eq!(str_field(&ok, "op"), "ping");

    // The stalled client: half a request line, then silence, holding
    // the socket open across the entire shutdown.
    let mut stalled = TcpStream::connect(&addr).expect("connect");
    stalled.write_all(br#"{"op":"ana"#).expect("partial write");
    stalled.flush().expect("flush");
    // Give a worker time to pick the connection up and block in read.
    std::thread::sleep(Duration::from_millis(200));

    server.shutdown();
    let begin = Instant::now();
    let summary = server.wait();
    let elapsed = begin.elapsed();
    assert!(
        elapsed < Duration::from_secs(SHUTDOWN_DRAIN_SECS + 3),
        "wait must give up on the stalled worker within the drain deadline, took {elapsed:?}"
    );
    assert!(
        summary.contains("abandoned 1 stalled connection(s)"),
        "{summary}"
    );
    drop(stalled);
}

#[test]
fn sigterm_through_the_watcher_persists_and_warm_restart_matches() {
    if !chromata_signal::supported() {
        return; // no signal syscalls on this target; covered elsewhere
    }
    let dir = scratch_dir("sigterm");

    let server = start(ServeOptions {
        cache_dir: Some(dir.clone()),
        persist_secs: 0,
        ..options()
    });
    let addr = server.local_addr().to_string();
    let handle = server.shutdown_handle();
    let watch =
        chromata_signal::watch_termination(move |_sig| handle.request()).expect("watcher spawns");

    let first = json_line(&request_line(&addr, r#"{"task":"hourglass"}"#, 60).unwrap());
    assert_eq!(str_field(&first, "status"), "ok");
    let digest = str_field(&first, "evidence_digest").to_owned();

    // Thread-directed SIGTERM at the watcher — the production delivery
    // path minus the process-wide fan-in (which would kill the test
    // harness's unmasked threads).
    let mut delivered = false;
    for _ in 0..500 {
        if watch.deliver(chromata_signal::SIGTERM) {
            delivered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(delivered, "watcher never published its thread id");
    let summary = server.wait();
    watch.stop();
    assert!(summary.contains("persisted"), "{summary}");
    assert!(dir.join("verdict.snap").exists(), "no verdict snapshot");

    // The signal-driven persist must be a complete snapshot: a restart
    // on a fresh engine serves the byte-identical digest.
    let server = start(ServeOptions {
        cache_dir: Some(dir.clone()),
        persist_secs: 0,
        ..options()
    });
    assert!(
        server.loaded().is_some_and(|l| l.restored == 1),
        "the restart must restore exactly the one persisted verdict"
    );
    let addr = server.local_addr().to_string();
    let again = json_line(&request_line(&addr, r#"{"task":"hourglass"}"#, 60).unwrap());
    assert_eq!(str_field(&again, "evidence_digest"), digest);
    server.shutdown();
    let _ = server.wait();
    let _ = std::fs::remove_dir_all(&dir);
}
