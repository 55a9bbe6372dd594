//! `library-cold`: clear the artifact store, then one `analyze_batch`
//! over the 19-task registry per pass. The paper's own task set; the
//! engine does almost all the work and serve and persist stay idle.
//! The library is fixed, so the seed changes nothing here.

use std::time::Instant;

use chromata::{analyze_batch, clear_stage_caches, Analysis, PipelineOptions};
use chromata_task::Task;

use crate::probe::{self, Layers};
use crate::{
    assignments_checked, digest, expected, median, peak_rss_mb, repeated_setup, timed,
    verdict_label, Ctx, Report,
};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 15;
/// Passes every untraced run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// The library in registry order.
pub struct Library {
    pub names: Vec<&'static str>,
    pub tasks: Vec<Task>,
}

impl Library {
    pub fn build() -> Result<Library, String> {
        let (names, tasks) = crate::library()?.into_iter().unzip();
        Ok(Library { names, tasks })
    }

    pub fn batch(&self) -> Vec<Analysis> {
        analyze_batch(&self.tasks, PipelineOptions::default())
    }

    /// The expected verdict label of each task, in order.
    pub fn expected(&self) -> Vec<&'static str> {
        self.names
            .iter()
            .map(|n| expected::verdict_of(n).unwrap_or("missing"))
            .collect()
    }

    /// Checks each verdict against the expected table and each digest
    /// against `golden`, which the first call fills in.
    pub fn check(&self, analyses: &[Analysis], golden: &mut Vec<String>, report: &mut Report) {
        let digests: Vec<String> = analyses.iter().map(|a| digest(&a.evidence)).collect();
        if golden.is_empty() {
            golden.clone_from(&digests);
        }
        for (i, ((name, analysis), want)) in self
            .names
            .iter()
            .zip(analyses)
            .zip(self.expected())
            .enumerate()
        {
            let got = verdict_label(&analysis.verdict);
            report.check(got == want && digests[i] == golden[i], || {
                format!(
                    "{name}: verdict {got} (want {want}), digest {} (want {})",
                    digests[i], golden[i]
                )
            });
        }
        report.check(analyses.len() == self.names.len(), || {
            format!("{} analyses for {} tasks", analyses.len(), self.names.len())
        });
    }

    /// The inline request line of each task.
    pub fn lines(&self) -> Result<Vec<String>, String> {
        self.tasks.iter().map(crate::request_line).collect()
    }
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let (lib, setup_s) = repeated_setup(SETUPS, Library::build, drop)?;
    let mut golden = Vec::new();
    let mut times = Vec::new();
    let start = Instant::now();
    while times.len() < MIN_PASSES || start.elapsed() < ctx.budget {
        clear_stage_caches();
        let (analyses, ms) = timed(|| lib.batch());
        times.push(ms);
        lib.check(&analyses, &mut golden, &mut report);
    }
    // Warm parity: the same batch answered from the caches.
    let warm = lib.batch();
    lib.check(&warm, &mut golden, &mut report);

    eprintln!("chromabench: batch ms {times:.0?}");
    let rates: Vec<f64> = times
        .iter()
        .map(|ms| lib.tasks.len() as f64 * 1e3 / ms)
        .collect();
    report.metric("setup_s", setup_s, "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("op_ms.p50", median(&times), "ms");
    report.metric("ops_per_s", median(&rates), "1/s");
    Ok(report)
}

pub fn run_traced(ctx: &Ctx) -> Result<Report, String> {
    let mut report = Report::default();
    let lib = Library::build()?;
    let lines = lib.lines()?;
    let expected = lib.expected();
    let task_refs: Vec<&Task> = lib.tasks.iter().collect();
    let dir = ctx.scratch_dir("probe")?;
    let server = probe::start_server()?;
    let addr = server.local_addr().to_string();
    let mut layers = Layers::new();
    let mut golden = Vec::new();
    let start = Instant::now();
    let mut pass = 0;
    while pass == 0 || start.elapsed() < ctx.budget {
        clear_stage_caches();
        let (analyses, ms) = timed(|| lib.batch());
        layers.untraced_op_ms.push(ms);
        lib.check(&analyses, &mut golden, &mut report);

        clear_stage_caches();
        let (analyses, batch_ms) =
            layers
                .tracer
                .span_ms("pipeline.analyze_batch", None, pass, 0, |_| lib.batch());
        layers.traced_op_ms.push(batch_ms);
        lib.check(&analyses, &mut golden, &mut report);
        let assignments: u64 = analyses
            .iter()
            .map(|a| assignments_checked(&a.evidence))
            .sum();
        layers
            .counters
            .add(pass, "continuous.assignments_checked", assignments as f64);
        layers.cache_counters(Some(pass));

        layers.serve(pass, &addr, &lines, &expected, &mut report);
        layers.persist(pass, &dir, &mut report);
        layers.wire(pass, &lines, &mut report);
        let engine_ms = layers.engine(pass, &task_refs);
        layers.unaccounted.push(1.0 - engine_ms / batch_ms);
        pass += 1;
        layers.passes = pass;
    }
    let counts = probe::server_counts(&addr)?;
    probe::stop_server(server);
    drop(std::fs::remove_dir_all(&dir));
    layers.finish(&counts, &mut report, &ctx.trace_file)?;
    Ok(report)
}
