//! The `matrix-smoke` workload: the smoke `MatrixPlan` run through
//! `orchestrator::run` with pre-flight analysis and a checkpoint, then a
//! resume pass over the finished checkpoint.
//!
//! The orchestrator runs each cell with a fresh `System` (empty caches)
//! on a pool of two worker threads (one on a one-core host). The benchmark wraps the public
//! entry points it calls: `MatrixPlan::build`, `JobSpec::analyze`,
//! `orchestrator::run`, the report rendering and, in a traced run,
//! `System::new`/`System::finish` on every cell's configuration.

use crate::cells::fnv1a;
use crate::host;
use crate::metrics::{self, ratio, Kind, Timed, Values};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use morello_sim::{RunStats, SimConfig, System};
use rev_bench::figures;
use rev_bench::harness::{
    grpc_messages, pgbench_transactions, rate_label, Scale, Suite, CONDITIONS, RATE_SCHEDULE,
};
use rev_bench::orchestrator::{self, MatrixOutcome, RunOptions};
use rev_bench::plan::{JobSpec, MatrixPlan, SuiteKind};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;
use workloads::{
    grpc_stream, pgbench_stream, spec_stream, GrpcParams, PgbenchParams, SPEC_PROGRAMS,
};

/// The seed picks one of the plan's repetition seeds (`1000 + rep`,
/// `2000 + rep`, `4000 + rep`; the rate suite always uses 3000).
const REPS: u64 = 12;
/// Set-up rounds per untraced run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;

fn scale(seed: u64, tiny: bool) -> Scale {
    Scale {
        fraction: if tiny { 0.001 } else { Scale::smoke().fraction },
        reps: seed % REPS + 1,
    }
}

/// The smoke plan's 68 cells at the seed's repetition (13 non-SPEC cells
/// at the self-test's tiny size).
fn build_plan(seed: u64, tiny: bool) -> Result<Vec<JobSpec>, String> {
    let rep = seed % REPS;
    let plan = if tiny {
        MatrixPlan::new(scale(seed, tiny)).suites(&[
            SuiteKind::Pgbench,
            SuiteKind::PgbenchRates,
            SuiteKind::Grpc,
        ])
    } else {
        MatrixPlan::all(scale(seed, tiny))
    };
    let mut jobs = plan.build().map_err(|e| e.to_string())?;
    jobs.retain(|j| j.suite() == SuiteKind::PgbenchRates || j.seed() % 1000 == rep);
    Ok(jobs)
}

/// A cell's simulator configuration, rebuilt from the public generators
/// (the plan keeps its own private).
fn job_config(job: &JobSpec, scale: Scale) -> Option<SimConfig> {
    let pg = |rate| PgbenchParams {
        transactions: pgbench_transactions(scale),
        rate,
        seed: job.seed(),
    };
    let cfg = match job.suite() {
        SuiteKind::Spec => {
            let program = SPEC_PROGRAMS.iter().find(|p| p.name() == job.workload())?;
            spec_stream(*program, job.seed()).config
        }
        SuiteKind::Pgbench => pgbench_stream(pg(None)).config,
        SuiteKind::PgbenchRates => {
            let rate = RATE_SCHEDULE
                .iter()
                .find(|r| rate_label(**r) == job.workload())?;
            pgbench_stream(pg(*rate)).config
        }
        SuiteKind::Grpc => {
            grpc_stream(GrpcParams {
                messages: grpc_messages(scale),
                seed: job.seed(),
            })
            .config
        }
    };
    Some(cfg.with_condition(job.condition()))
}

/// The Markdown report `run_matrix` renders for the suites present.
fn render(out: &MatrixOutcome) -> String {
    let empty = Suite::default();
    let get = |k: &str| out.suites.get(k).unwrap_or(&empty);
    let (spec, pg, rates, grpc) = (
        get("spec"),
        get("pgbench"),
        get("pgbench-rates"),
        get("grpc"),
    );
    let has = |s: &Suite| !s.workloads().is_empty();
    let mut doc = String::new();
    let mut push = |section: String| {
        doc.push_str(&section);
        doc.push('\n');
    };
    if has(spec) {
        push(figures::fig1_spec_wall(spec));
        push(figures::fig2_cpu_time(spec));
        push(figures::fig3_peak_rss(spec));
        push(figures::fig4_bus_traffic(spec));
    }
    if has(pg) {
        push(figures::fig5_pgbench_time(pg));
        push(figures::fig6_pgbench_bus(pg));
        push(figures::fig7_pgbench_cdf(pg));
    }
    if has(grpc) {
        push(figures::fig8_grpc_latency(grpc));
    }
    let all3 = has(spec) && has(pg) && has(grpc);
    if all3 {
        push(figures::fig9_phase_times(spec, pg, grpc));
    }
    if has(rates) {
        push(figures::table1_rates(rates));
    }
    if all3 {
        push(figures::table2_revocation_rates(spec, pg, grpc));
        push(figures::shape_report_checked(spec, pg, grpc, &out.failures));
    }
    push(figures::failure_report(&out.failures));
    doc
}

/// Counters summed over every cell's `RunStats`.
fn stats_sum(out: &MatrixOutcome) -> RunStats {
    let mut sum = RunStats::default();
    for suite in out.suites.values() {
        for w in suite.workloads() {
            for cond in CONDITIONS {
                for s in suite.stats(&w, cond.label()) {
                    sum.tlb_misses += s.tlb_misses;
                    sum.tlb_shootdowns += s.tlb_shootdowns;
                    sum.pte_writes += s.pte_writes;
                    sum.revocations += s.revocations;
                    sum.pages_swept += s.pages_swept;
                    sum.faults += s.faults;
                    sum.allocs += s.allocs;
                    sum.frees += s.frees;
                    sum.blocked_allocs += s.blocked_allocs;
                    sum.app_dram += s.app_dram;
                    sum.revoker_dram += s.revoker_dram;
                }
            }
        }
    }
    sum
}

struct Pass {
    timed: Timed,
    resume_s: f64,
    checkpoint_bytes: u64,
    attempts: u64,
}

/// Scratch directory for checkpoints, inside the working directory.
fn scratch_dir() -> PathBuf {
    PathBuf::from(".bench_out").join(format!("matrix-{}", std::process::id()))
}

fn options(checkpoint: &Path, inject: Option<String>) -> RunOptions {
    RunOptions::new()
        .workers(crate::matrix_workers())
        .preflight(true)
        .checkpoint(checkpoint)
        .inject_panic(inject)
}

/// Runs `matrix-smoke` for `args.seconds` and reports its metrics.
///
/// # Errors
///
/// Plan or scratch-directory failures.
pub fn run(args: &Args, start: Instant, tracer: &mut Tracer) -> Result<Outcome, String> {
    let dir = scratch_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let result = run_in(args, start, tracer, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    result
}

fn run_in(args: &Args, start: Instant, tracer: &mut Tracer, dir: &Path) -> Result<Outcome, String> {
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    // Set-up: plan, the analyzer pass that sizes every program in ops,
    // and one warm-up cell; repeated, the first timed from process start.
    let mut setup = Vec::new();
    let mut plan_s = 0.0;
    let mut analyze_s = 0.0;
    let mut analyzed_ops = 0u64;
    let mut prepared = None;
    let rounds = if args.trace { 1 } else { SETUP_ROUNDS };
    for r in 0..rounds {
        let t = if r == 0 { start } else { Instant::now() };
        tracer.set_enabled(args.trace);
        let root = tracer.begin_root("setup", 0);
        let id = tracer.begin("bench.plan_build");
        let t_plan = Instant::now();
        let jobs = build_plan(args.seed, args.tiny)?;
        plan_s = t_plan.elapsed().as_secs_f64();
        tracer.end(id);
        let mut ops_of: BTreeMap<(&'static str, String, u64), u64> = BTreeMap::new();
        let t_an = Instant::now();
        analyzed_ops = 0;
        for j in &jobs {
            let key = (j.suite().label(), j.workload().to_string(), j.seed());
            if let std::collections::btree_map::Entry::Vacant(slot) = ops_of.entry(key) {
                let id = tracer.begin("analyze.program");
                let report = j.analyze(false);
                tracer.end(id);
                analyzed_ops += report.ops;
                slot.insert(report.ops);
            }
        }
        analyze_s = t_an.elapsed().as_secs_f64();
        let job_ops: Vec<u64> = jobs
            .iter()
            .map(|j| ops_of[&(j.suite().label(), j.workload().to_string(), j.seed())])
            .collect();
        let warm = (0..jobs.len())
            .min_by_key(|&i| job_ops[i])
            .ok_or("empty plan")?;
        let id = tracer.begin("bench.run");
        let ck = dir.join(format!("warmup-{r}.jsonl"));
        let out = orchestrator::run(&jobs[warm..=warm], &options(&ck, None));
        tracer.end(id);
        tracer.end(root);
        tracer.set_enabled(false);
        attempted += 1;
        if !out.failures.is_empty() {
            failed += 1;
            notes.push(format!(
                "check failed: warm-up cell {}: {}",
                jobs[warm].key(),
                out.failures[0].message
            ));
        }
        setup.push(t.elapsed().as_secs_f64());
        prepared = Some((jobs, job_ops));
    }
    let (jobs, job_ops) = prepared.expect("at least one set-up round");
    let total_ops: u64 = job_ops.iter().sum();

    let t0 = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    let mut counters = RunStats::default();
    let min_passes = if args.trace { 2 } else { 1 };
    let mut report_digest = None;
    loop {
        let done = passes.len();
        if done >= min_passes {
            let per_pass = t0.elapsed().as_secs_f64() / done as f64;
            if t0.elapsed().as_secs_f64() + per_pass > args.seconds {
                break;
            }
        }
        let traced = args.trace && done.is_multiple_of(2);
        tracer.set_enabled(traced);
        let ck = dir.join(format!("pass-{done}.jsonl"));
        let opts = options(&ck, args.inject_panic.clone());
        let root = tracer.begin_root("cell", 1 + done as u32);
        let t = Instant::now();
        let cpu = host::process_cpu_ns();
        let id = tracer.begin("bench.run");
        let out = orchestrator::run(&jobs, &opts);
        tracer.end(id);
        let wall_s = t.elapsed().as_secs_f64();
        let cpu_s = host::process_cpu_ns().saturating_sub(cpu) as f64 / 1e9;
        let id = tracer.begin("bench.report");
        let report = render(&out);
        tracer.end(id);
        let t_resume = Instant::now();
        let id = tracer.begin("bench.resume");
        let again = orchestrator::run(&jobs, &opts);
        let again_report = render(&again);
        tracer.end(id);
        let resume_s = t_resume.elapsed().as_secs_f64();
        tracer.end(root);
        tracer.set_enabled(false);

        attempted += jobs.len() as u64;
        let failed_ids: Vec<usize> = out.failures.iter().map(|f| f.job_id).collect();
        for f in &out.failures {
            notes.push(format!(
                "check failed: JobFailure {} after {} attempt(s): {}",
                f.key, f.attempts, f.message
            ));
        }
        let resumed_ok =
            again.resumed + again.failures.len() == jobs.len() && again_report == report;
        if resumed_ok {
            failed += out.failures.len() as u64;
        } else {
            failed += jobs.len() as u64;
            notes.push(format!(
                "check failed: resume pass settled {} of {} cells from the checkpoint, report bytes {}",
                again.resumed,
                jobs.len(),
                if again_report == report { "equal" } else { "differ" }
            ));
        }
        let digest = fnv1a(report.as_bytes());
        if report_digest.is_none() {
            notes.push(format!(
                "digest matrix-smoke report={digest:016x} ({} bytes)",
                report.len()
            ));
            counters = stats_sum(&out);
        } else if report_digest != Some(digest) {
            notes.push(format!(
                "check failed: matrix report digest {digest:016x} changed within the run"
            ));
            failed += 1;
        }
        report_digest = Some(digest);
        let ops: u64 = (0..jobs.len())
            .filter(|i| !failed_ids.contains(i))
            .map(|i| job_ops[i])
            .sum();
        let checkpoint_bytes = std::fs::metadata(&ck).map_or(0, |m| m.len());
        let attempts = out.completed as u64
            + out
                .failures
                .iter()
                .map(|f| u64::from(f.attempts))
                .sum::<u64>();
        let kind = if traced { Kind::Traced } else { Kind::Plain };
        let completed = out.completed as u64;
        passes.push(Pass {
            timed: Timed {
                kind,
                wall_s,
                cpu_s,
                cells: completed,
                ops,
            },
            resume_s,
            checkpoint_bytes,
            attempts,
        });
    }

    // `System::new`/`finish` priced on every cell's configuration.
    let (mut new_s, mut finish_s) = (0.0, 0.0);
    if args.trace {
        tracer.set_enabled(true);
        let root = tracer.begin_root("probe", 1 + passes.len() as u32);
        let sc = scale(args.seed, args.tiny);
        for job in &jobs {
            let cfg =
                job_config(job, sc).ok_or_else(|| format!("no configuration for {}", job.key()))?;
            let id = tracer.begin("sim.new");
            let sys = System::new(cfg);
            new_s += tracer.end(id).unwrap_or(0) as f64 / 1e9;
            let id = tracer.begin("sim.finish");
            let stats = sys.finish();
            finish_s += tracer.end(id).unwrap_or(0) as f64 / 1e9;
            std::hint::black_box(stats);
        }
        tracer.end(root);
        tracer.set_enabled(false);
    }

    let mut values = Values::default();
    let timed: Vec<Timed> = passes.iter().map(|p| p.timed).collect();
    metrics::summarize(&mut values, &setup, &timed, attempted, failed);
    let per_pass: Vec<String> = timed
        .iter()
        .filter(|t| t.kind == Kind::Plain)
        .map(|t| format!("{:.3}", ratio(t.cells as f64, t.wall_s)))
        .collect();
    notes.push(format!(
        "untraced passes {} of {} cells ({} workers); cells_per_s per pass: {}",
        per_pass.len(),
        jobs.len(),
        crate::matrix_workers(),
        per_pass.join(", ")
    ));

    let traced: Vec<&Pass> = passes
        .iter()
        .filter(|p| p.timed.kind == Kind::Traced)
        .collect();
    let n = traced.len().max(1) as f64;
    let mean = |f: &dyn Fn(&Pass) -> f64| traced.iter().map(|p| f(p)).sum::<f64>() / n;
    let c = &counters;
    let f = |x: u64| x as f64;
    for (name, v) in [
        ("workloads.ops", f(total_ops)),
        ("sim.new_s", new_s),
        ("sim.finish_s", finish_s),
        ("alloc.allocs", f(c.allocs)),
        ("alloc.frees", f(c.frees)),
        ("alloc.blocked_allocs", f(c.blocked_allocs)),
        ("vm.tlb_misses", f(c.tlb_misses)),
        ("vm.tlb_shootdowns", f(c.tlb_shootdowns)),
        ("vm.pte_writes", f(c.pte_writes)),
        ("mem.dram_transactions.app", f(c.app_dram)),
        ("mem.dram_transactions.revoker", f(c.revoker_dram)),
        ("core.epochs", f(c.revocations)),
        ("core.pages_swept", f(c.pages_swept)),
        ("core.load_faults", f(c.faults)),
        ("analyze.preflight_s", analyze_s),
        ("analyze.ops_per_s", ratio(analyzed_ops as f64, analyze_s)),
        ("bench.plan_build_s", plan_s),
        ("bench.run_s", mean(&|p| p.timed.wall_s)),
        ("bench.resume_s", mean(&|p| p.resume_s)),
        (
            "bench.checkpoint_bytes",
            mean(&|p| p.checkpoint_bytes as f64),
        ),
        ("bench.attempts", mean(&|p| p.attempts as f64)),
    ] {
        values.set(name, v);
    }
    Ok(Outcome {
        values,
        attempted,
        failed,
        notes,
        traced_rounds: traced.len(),
    })
}
