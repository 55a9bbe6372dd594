//! `restart`: set-up decides the library cold into a fresh cache
//! directory and writes the first snapshot. Each pass then restarts —
//! clears the in-memory store, runs `load_cache_dir` and re-decides the
//! library — and, separately, snapshots the full store with
//! `persist_now`. The persist layer does nearly all the work. The
//! library is fixed, so the seed changes nothing here.

use std::path::Path;
use std::time::Instant;

use chromata::{clear_stage_caches, load_cache_dir, persist_now, CacheDirConfig};

use crate::library::Library;
use crate::probe::{self, Layers};
use crate::{assignments_checked, median, peak_rss_mb, repeated_setup, timed, Ctx, Report};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Passes every untraced run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

struct Setup {
    lib: Library,
    golden: Vec<String>,
    assignments: u64,
}

/// Decides the library cold and writes the first snapshot into `dir`.
fn setup(dir: &Path, report: &mut Report) -> Result<Setup, String> {
    if dir.exists() {
        std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    let lib = Library::build()?;
    clear_stage_caches();
    let analyses = lib.batch();
    let mut golden = Vec::new();
    lib.check(&analyses, &mut golden, report);
    let saved = persist_now(&CacheDirConfig::at(dir));
    report.check(matches!(saved, Some(Ok(_))), || {
        format!("first snapshot failed: {saved:?}")
    });
    let assignments = analyses
        .iter()
        .map(|a| assignments_checked(&a.evidence))
        .sum();
    Ok(Setup {
        lib,
        golden,
        assignments,
    })
}

/// Clears the store, restores it and re-decides the library; checks the
/// restore and the restored verdicts.
fn restart(s: &mut Setup, config: &CacheDirConfig, report: &mut Report) {
    clear_stage_caches();
    let loaded = load_cache_dir(config);
    report.check(
        loaded.is_some_and(|l| l.recovery_events() == 0 && l.restored > 0),
        || format!("restore was not clean: {loaded:?}"),
    );
    let analyses = s.lib.batch();
    s.lib.check(&analyses, &mut s.golden, report);
}

fn persist(config: &CacheDirConfig, report: &mut Report) {
    let saved = persist_now(config);
    report.check(matches!(saved, Some(Ok(_))), || {
        format!("persist_now failed: {saved:?}")
    });
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let dir = ctx.scratch_dir("restart")?;
    let config = CacheDirConfig::at(&dir);
    let (mut s, setup_s) = repeated_setup(SETUPS, || setup(&dir, &mut report), drop)?;
    let mut restart_ms = Vec::new();
    let mut cycles_per_s = Vec::new();
    let start = Instant::now();
    while restart_ms.len() < MIN_PASSES || start.elapsed() < ctx.budget {
        let ((), r) = timed(|| restart(&mut s, &config, &mut report));
        let ((), p) = timed(|| persist(&config, &mut report));
        restart_ms.push(r);
        cycles_per_s.push(1e3 / (r + p));
    }
    drop(std::fs::remove_dir_all(&dir));

    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("op_ms.p50", median(&restart_ms), "ms");
    eprintln!("chromabench: restart ms {restart_ms:.0?}");
    report.metric("ops_per_s", median(&cycles_per_s), "1/s");
    Ok(report)
}

pub fn run_traced(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let dir = ctx.scratch_dir("restart")?;
    let config = CacheDirConfig::at(&dir);
    let mut s = setup(&dir, &mut report)?;
    let lines = s.lib.lines()?;
    let expected = s.lib.expected();
    let tasks = s.lib.tasks.clone();
    let task_refs: Vec<_> = tasks.iter().collect();
    let server = probe::start_server()?;
    let addr = server.local_addr().to_string();
    let mut layers = Layers::new();
    layers
        .counters
        .set("continuous.assignments_checked", s.assignments as f64);
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed() < ctx.budget {
        let ((), ms) = timed(|| restart(&mut s, &config, &mut report));
        layers.untraced_op_ms.push(ms);
        persist(&config, &mut report);

        let tr = &layers.tracer;
        let counters = &mut layers.counters;
        let ((), op_ms) = tr.span_ms("restart.op", None, pass, 0, |root| {
            tr.span("cache.clear_stage_caches", Some(root), pass, 0, |_| {
                clear_stage_caches();
            });
            probe::load(tr, counters, pass, Some(root), &config, &mut report);
            let analyses = tr.span("pipeline.analyze_batch", Some(root), pass, 0, |_| {
                s.lib.batch()
            });
            s.lib.check(&analyses, &mut s.golden, &mut report);
        });
        layers.traced_op_ms.push(op_ms);
        let gap_ms: f64 = crate::trace::self_ms_per_pass(&tr.spans(), "restart.op", pass + 1)[pass];
        layers.unaccounted.push(gap_ms / op_ms);
        let saved = layers
            .tracer
            .span("persist.persist_now", None, pass, 0, |_| {
                persist_now(&config)
            });
        report.check(matches!(saved, Some(Ok(_))), || {
            format!("persist_now failed: {saved:?}")
        });
        // Restores carry the snapshot's cache counters forward, so both
        // the counters and the snapshot (whose header holds them) grow
        // from pass to pass: take them from the first pass only.
        if pass == 0 {
            layers.cache_counters(None);
            layers
                .counters
                .set("persist.snapshot_bytes", probe::dir_bytes(&dir) as f64);
        }

        layers.serve(pass, &addr, &lines, &expected, &mut report);
        layers.wire(pass, &lines, &mut report);
        layers.engine(pass, &task_refs);
        pass += 1;
        layers.passes = pass;
    }
    let counts = probe::server_counts(&addr)?;
    probe::stop_server(server);
    drop(std::fs::remove_dir_all(&dir));
    layers.finish(&counts, &mut report, &ctx.trace_file)?;
    Ok(report)
}
