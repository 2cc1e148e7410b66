//! The single-cell workloads: the benchmark generates each cell's op
//! stream from the seed and feeds it to a fresh `System` batch by batch,
//! timing its own calls into each layer.
//!
//! Every cell starts with a fresh `System` (so empty caches, TLBs and
//! heap) and a freshly seeded generator. A round runs each of the
//! workload's variants once, back to back (closed loop, one thread).

use crate::host;
use crate::metrics::{self, median, quantile, ratio, Kind, Timed, Values};
use crate::trace::Tracer;
use crate::{Args, Outcome};
use morello_sim::{
    Condition, Op, OpSource, RunStats, SimConfig, StaleChaseOutcome, System, TelemetryConfig,
    TelemetryEvent, OP_BATCH,
};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use workloads::{pgbench_stream, spec_stream, PgbenchParams, SpecProgram};

// Cell sizes: a 25-second run holds 40 or more rounds, so the rate
// quantile the run reports has at least ten rounds beyond it.
/// Transactions per pgbench cell.
const PGBENCH_TX: u64 = 800;
/// The omnetpp and xalancbmk cells run their surrogate's heap warm-up and
/// then the first 1/N of its churn.
const OMNETPP_CHURN_DIVISOR: u64 = 2;
const XALANC_CHURN_DIVISOR: u64 = 8;
/// Telemetry sampling period (simulated cycles) of the xalancbmk cells.
const SAMPLE_EVERY: u64 = 1_000_000;
/// Set-up rounds per untraced run; `setup_s` is their median.
const SETUP_ROUNDS: usize = 3;

type SourceFn = Box<dyn Fn() -> Box<dyn OpSource>>;

/// One condition of a workload, with the configuration its cells run.
struct Variant {
    label: &'static str,
    cfg: SimConfig,
}

/// A workload's generator and variants.
struct CellPlan {
    source: SourceFn,
    variants: Vec<Variant>,
    /// The same variants with simulator telemetry off (xalancbmk only:
    /// the traced run compares the two to price telemetry).
    untelemetered: Vec<Variant>,
}

fn churn_source(program: SpecProgram, seed: u64, divisor: u64) -> SourceFn {
    let mut profile = program.profile();
    profile.total_churn /= divisor;
    Box::new(move || Box::new(profile.source(seed)))
}

fn plan(name: &str, seed: u64, tiny: bool) -> Result<CellPlan, String> {
    let variants = |cfg: &SimConfig, conds: &[Condition]| -> Vec<Variant> {
        conds
            .iter()
            .map(|&c| Variant {
                label: c.label(),
                cfg: cfg.clone().with_condition(c),
            })
            .collect()
    };
    match name {
        "pgbench-revoking" => {
            let params = PgbenchParams {
                transactions: if tiny { 60 } else { PGBENCH_TX },
                rate: None,
                seed,
            };
            let cfg = pgbench_stream(params).config;
            Ok(CellPlan {
                source: Box::new(move || Box::new(pgbench_stream(params).source)),
                variants: variants(&cfg, &[Condition::cornucopia(), Condition::reloaded()]),
                untelemetered: Vec::new(),
            })
        }
        "omnetpp-baseline" => {
            let cfg = spec_stream(SpecProgram::Omnetpp, seed).config;
            Ok(CellPlan {
                source: churn_source(
                    SpecProgram::Omnetpp,
                    seed,
                    if tiny { 200 } else { OMNETPP_CHURN_DIVISOR },
                ),
                variants: variants(&cfg, &[Condition::baseline()]),
                untelemetered: Vec::new(),
            })
        }
        "xalancbmk-traced" => {
            let cfg = spec_stream(SpecProgram::Xalancbmk, seed).config;
            let conds = [Condition::baseline(), Condition::reloaded()];
            let telemetered = cfg
                .to_builder()
                .telemetry(TelemetryConfig {
                    sample_every: Some(SAMPLE_EVERY),
                    series_capacity: 1 << 22,
                    event_capacity: 1 << 24,
                    record_events: true,
                    record_spans: true,
                })
                .build()
                .map_err(|e| format!("telemetry config: {e}"))?;
            Ok(CellPlan {
                source: churn_source(
                    SpecProgram::Xalancbmk,
                    seed,
                    if tiny { 400 } else { XALANC_CHURN_DIVISOR },
                ),
                variants: variants(&telemetered, &conds),
                untelemetered: variants(&cfg, &conds),
            })
        }
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Deterministic per-layer counters, keyed by metric name.
type Counts = BTreeMap<&'static str, u64>;

fn add(counts: &mut Counts, pairs: impl IntoIterator<Item = (&'static str, u64)>) {
    for (name, v) in pairs {
        *counts.entry(name).or_default() += v;
    }
}

/// What the benchmark fed a cell, counted from the op stream.
#[derive(Debug, Clone, Copy, Default)]
struct Fed {
    ops: u64,
    allocs: u64,
    frees: u64,
    /// `Compute`/`ThinkIdle` ops fed while no pass was in flight at the
    /// start of their batch.
    fusable: u64,
}

/// Reads the layers' counters through their public accessors, just
/// before `System::finish` (so they exclude the drain of a pass still in
/// flight when the stream ends).
fn snapshot(sys: &System, counts: &mut Counts) {
    let vm = sys.machine().vm_stats();
    let rev = sys.revoker().stats();
    let heap = sys.heap().stats();
    add(
        counts,
        [
            ("vm.tlb_misses", vm.tlb_misses),
            ("vm.tlb_shootdowns", vm.tlb_shootdowns),
            ("vm.pte_writes", vm.pte_writes),
            ("vm.cap_dirty_sets", vm.cap_dirty_sets),
            ("vm.load_generation_faults", vm.load_generation_faults),
            ("core.epochs", rev.epochs),
            ("core.pages_swept", rev.pages_swept),
            ("core.pages_visited_clean", rev.pages_visited_clean),
            ("core.caps_checked", rev.caps_checked),
            ("core.caps_revoked", rev.caps_revoked),
            ("core.load_faults", rev.load_faults),
            ("core.stw_cycles", rev.stw_cycles),
            ("core.concurrent_cycles", rev.concurrent_cycles),
            ("alloc.allocs", heap.allocs),
            ("alloc.frees", heap.frees),
            ("alloc.blocked_allocs", heap.blocked_allocs),
            ("alloc.revocations_requested", heap.revocations_requested),
        ],
    );
    for core in 0..sys.machine().num_cores() {
        let t = sys.machine().mem().traffic(core);
        let dram = if sys.revoker().cores().contains(&core) {
            "mem.dram_transactions.revoker"
        } else {
            "mem.dram_transactions.app"
        };
        add(
            counts,
            [
                ("mem.l1_hits", t.l1_hits),
                ("mem.l2_hits", t.l2_hits),
                (dram, t.dram_transactions),
            ],
        );
    }
}

/// Host time per layer call, from the spans of traced cells.
#[derive(Debug, Default)]
struct HostSplit {
    refill_s: f64,
    new_s: f64,
    exec_idle_s: f64,
    exec_revoking_s: f64,
    finish_s: f64,
    batches_revoking: u64,
    batch_ms: Vec<f64>,
}

/// What one cell produced.
struct CellOut {
    stats: RunStats,
    fed: Fed,
    counts: Counts,
    /// Stale pointer chases that escaped (telemetry on).
    escaped: u64,
}

fn secs(ns: Option<u64>) -> f64 {
    ns.map_or(0.0, |n| n as f64 / 1e9)
}

/// Feeds one cell. Errors are simulator errors; panics are caught by the
/// caller.
fn feed_cell(
    plan: &CellPlan,
    v: &Variant,
    tracer: &mut Tracer,
    split: &mut HostSplit,
) -> Result<CellOut, String> {
    let id = tracer.begin("workloads.source");
    let mut source = (plan.source)();
    tracer.end(id);
    let id = tracer.begin("sim.new");
    let mut sys = System::new(v.cfg.clone());
    split.new_s += secs(tracer.end(id));
    let mut fed = Fed::default();
    let mut buf = Vec::with_capacity(OP_BATCH);
    loop {
        buf.clear();
        let id = tracer.begin("workloads.refill");
        let n = source.refill(&mut buf);
        split.refill_s += secs(tracer.end(id));
        if n == 0 {
            break;
        }
        let idle_before = !sys.revoker().is_revoking();
        for op in &buf {
            match op {
                Op::Alloc { .. } => fed.allocs += 1,
                Op::Free { .. } => fed.frees += 1,
                Op::Compute { .. } | Op::ThinkIdle { .. } if idle_before => fed.fusable += 1,
                _ => {}
            }
        }
        fed.ops += n as u64;
        if !tracer.enabled() {
            sys.exec_batch(&buf).map_err(|e| format!("SimError: {e}"))?;
            continue;
        }
        let epochs = sys.revoker().stats().epochs;
        let id = tracer.begin("sim.exec_batch");
        let res = sys.exec_batch(&buf);
        let s = secs(tracer.end(id));
        res.map_err(|e| format!("SimError: {e}"))?;
        let revoking =
            !idle_before || sys.revoker().is_revoking() || sys.revoker().stats().epochs != epochs;
        if revoking {
            tracer.rename(id, "sim.exec_revoking");
            split.exec_revoking_s += s;
            split.batches_revoking += 1;
        } else {
            tracer.rename(id, "sim.exec_idle");
            split.exec_idle_s += s;
        }
        split.batch_ms.push(s * 1e3);
    }
    let mut counts = Counts::new();
    snapshot(&sys, &mut counts);
    let id = tracer.begin("sim.finish");
    let report = sys.finish();
    split.finish_s += secs(tracer.end(id));
    let t = report.telemetry();
    let escaped = t
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.event,
                TelemetryEvent::StaleChase {
                    outcome: StaleChaseOutcome::Escaped,
                    ..
                }
            )
        })
        .count() as u64;
    add(
        &mut counts,
        [
            ("workloads.ops", fed.ops),
            ("telemetry.events", t.events.len() as u64),
            ("telemetry.dropped_events", t.dropped_events),
            ("telemetry.spans", t.spans.len() as u64),
            ("telemetry.samples", t.samples.len() as u64),
        ],
    );
    Ok(CellOut {
        stats: report.into_stats(),
        fed,
        counts,
        escaped,
    })
}

/// FNV-1a over a `RunStats`' canonical JSON: a digest to compare
/// simulated statistics between commits without pinning them.
#[must_use]
pub fn stats_digest(stats: &RunStats) -> u64 {
    fnv1a(stats.to_json_value().render().as_bytes())
}

/// 64-bit FNV-1a.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325_u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Correctness bookkeeping across the run's cells.
struct Checker {
    reference: BTreeMap<&'static str, RunStats>,
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
    /// 1-based index of the cell whose expected alloc count is made
    /// wrong on purpose (fault injection for the self-test).
    inject_miscount: Option<u64>,
}

impl Checker {
    /// Records one cell's result; returns it when every check passed.
    fn record(
        &mut self,
        label: &'static str,
        out: std::thread::Result<Result<CellOut, String>>,
    ) -> Option<CellOut> {
        self.attempted += 1;
        let out = match out {
            Ok(Ok(out)) => out,
            Ok(Err(e)) => return self.fail(label, &e),
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| (*s).to_string()))
                    .unwrap_or_else(|| "non-string panic".to_string());
                return self.fail(label, &format!("panic: {msg}"));
            }
        };
        let mut problems = Vec::new();
        let injected = u64::from(self.inject_miscount == Some(self.attempted));
        if out.stats.allocs != out.fed.allocs + 1 + injected {
            problems.push(format!(
                "allocs {} != Alloc ops fed {} + 1 (root table){}",
                out.stats.allocs,
                out.fed.allocs,
                if injected > 0 {
                    " + 1 (injected fault)"
                } else {
                    ""
                }
            ));
        }
        if out.stats.frees != out.fed.frees {
            problems.push(format!(
                "frees {} != Free ops fed {}",
                out.stats.frees, out.fed.frees
            ));
        }
        match self.reference.get(label) {
            Some(r) if *r != out.stats => problems.push(format!(
                "RunStats differ from the run's first {label} cell (digest {:016x} vs {:016x})",
                stats_digest(&out.stats),
                stats_digest(r)
            )),
            Some(_) => {}
            None => {
                self.notes.push(format!(
                    "digest {label} runstats={:016x}",
                    stats_digest(&out.stats)
                ));
                self.reference.insert(label, out.stats.clone());
            }
        }
        // Cells that journal events (telemetry on) resolve every stale
        // pointer chase; only the safe conditions may contain them all.
        if out.counts.get("telemetry.events").is_some_and(|&n| n > 0) {
            let dropped = out
                .counts
                .get("telemetry.dropped_events")
                .copied()
                .unwrap_or(0);
            if dropped != 0 {
                problems.push(format!("{dropped} telemetry events dropped"));
            }
            let baseline = label == Condition::baseline().label();
            if baseline && out.escaped == 0 {
                problems.push("no Escaped stale chase under Baseline".to_string());
            }
            if !baseline && out.escaped != 0 {
                problems.push(format!(
                    "{} Escaped stale chases under {label}",
                    out.escaped
                ));
            }
        }
        if problems.is_empty() {
            Some(out)
        } else {
            self.fail(label, &problems.join("; "))
        }
    }

    fn fail(&mut self, label: &str, why: &str) -> Option<CellOut> {
        self.failed += 1;
        self.notes.push(format!(
            "check failed: cell {} ({label}): {why}",
            self.attempted
        ));
        None
    }
}

/// A timed round and the per-layer counters of its passing cells.
struct Round {
    timed: Timed,
    fusable: u64,
    counts: Counts,
}

/// Runs one round: each variant once.
fn run_round(
    plan: &CellPlan,
    kind: Kind,
    cell_base: u32,
    tracer: &mut Tracer,
    split: &mut HostSplit,
    checker: &mut Checker,
) -> Round {
    tracer.set_enabled(kind == Kind::Traced);
    let variants = if kind == Kind::NoTelemetry {
        &plan.untelemetered
    } else {
        &plan.variants
    };
    let timed = Timed {
        kind,
        wall_s: 0.0,
        cpu_s: 0.0,
        cells: 0,
        ops: 0,
    };
    let mut round = Round {
        timed,
        fusable: 0,
        counts: Counts::new(),
    };
    for (i, v) in variants.iter().enumerate() {
        let t = Instant::now();
        let cpu = host::thread_cpu_ns();
        let root = tracer.begin_root("cell", cell_base + i as u32);
        let out = catch_unwind(AssertUnwindSafe(|| feed_cell(plan, v, tracer, split)));
        tracer.end(root);
        round.timed.wall_s += t.elapsed().as_secs_f64();
        round.timed.cpu_s += host::thread_cpu_ns().saturating_sub(cpu) as f64 / 1e9;
        round.timed.cells += 1;
        if let Some(out) = checker.record(v.label, out) {
            round.timed.ops += out.fed.ops;
            round.fusable += out.fed.fusable;
            add(&mut round.counts, out.counts);
        }
    }
    tracer.set_enabled(false);
    round
}

/// Runs a single-cell workload for `args.seconds` and reports its
/// metrics.
///
/// # Errors
///
/// An unknown workload name or an invalid configuration.
pub fn run(args: &Args, start: Instant, tracer: &mut Tracer) -> Result<Outcome, String> {
    let mut checker = Checker {
        reference: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        notes: Vec::new(),
        inject_miscount: args.inject_miscount,
    };
    // Set-up rounds are untraced, so `split` collects only the timed
    // traced rounds' host times.
    let mut split = HostSplit::default();
    // Set-up: generator and configuration construction plus one warm-up
    // round, repeated; the first is timed from process start. The first
    // warm-up round also supplies the per-layer counters, which repeat
    // exactly for a seed.
    let mut setup = Vec::new();
    let mut warm = None;
    let mut plan_opt = None;
    for r in 0..if args.trace { 1 } else { SETUP_ROUNDS } {
        let t = if r == 0 { start } else { Instant::now() };
        let plan = plan(&args.workload, args.seed, args.tiny)?;
        let round = run_round(&plan, Kind::Plain, 0, tracer, &mut split, &mut checker);
        warm.get_or_insert(round);
        setup.push(t.elapsed().as_secs_f64());
        plan_opt = Some(plan);
    }
    let (plan, warm) = (
        plan_opt.expect("a set-up round ran"),
        warm.expect("a set-up round ran"),
    );

    // Timed rounds. A traced run alternates traced and untraced rounds
    // (and, for telemetered workloads, telemetry-off rounds), so the
    // difference prices the tracing and the telemetry.
    let cycle: &[Kind] = match (args.trace, plan.untelemetered.is_empty()) {
        (false, _) => &[Kind::Plain],
        (true, true) => &[Kind::Traced, Kind::Plain],
        (true, false) => &[Kind::Traced, Kind::Plain, Kind::NoTelemetry],
    };
    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        let done = rounds.len();
        let elapsed = t0.elapsed().as_secs_f64();
        if done >= cycle.len() && elapsed + elapsed / done as f64 > args.seconds {
            break;
        }
        let kind = cycle[done % cycle.len()];
        let base = 1 + (done * plan.variants.len()) as u32;
        rounds.push(run_round(
            &plan,
            kind,
            base,
            tracer,
            &mut split,
            &mut checker,
        ));
    }

    let mut values = Values::default();
    let timed: Vec<Timed> = rounds.iter().map(|r| r.timed).collect();
    metrics::summarize(
        &mut values,
        &setup,
        &timed,
        checker.attempted,
        checker.failed,
    );
    let rates: Vec<f64> = timed
        .iter()
        .filter(|r| r.kind == Kind::Plain)
        .map(|r| ratio(r.ops as f64, r.wall_s))
        .collect();
    let mut notes = checker.notes;
    notes.push(format!(
        "timed rounds {} ({} cells each); sim_ops_per_s lower quartile {:.0}, median {:.0}, per round in order: {}",
        rates.len(),
        plan.variants.len(),
        quantile(&rates, metrics::RATE_QUANTILE),
        median(&rates),
        rates
            .iter()
            .map(|r| format!("{r:.0}"))
            .collect::<Vec<_>>()
            .join(" "),
    ));

    // Per-layer figures: counters per round (one cell per variant), host
    // times per traced round.
    for (name, v) in &warm.counts {
        values.set(name, *v as f64);
    }
    values.set(
        "sim.fusable_op_share",
        ratio(warm.fusable as f64, warm.timed.ops as f64),
    );
    let traced: Vec<&Timed> = timed.iter().filter(|r| r.kind == Kind::Traced).collect();
    let n = traced.len().max(1) as f64;
    let traced_wall: f64 = traced.iter().map(|r| r.wall_s).sum();
    for (name, v) in [
        ("workloads.refill_s", split.refill_s / n),
        ("workloads.share", ratio(split.refill_s, traced_wall)),
        ("sim.new_s", split.new_s / n),
        ("sim.finish_s", split.finish_s / n),
        ("sim.exec_idle_s", split.exec_idle_s / n),
        ("sim.exec_revoking_s", split.exec_revoking_s / n),
        (
            "sim.batches_revoking_ratio",
            ratio(split.batches_revoking as f64, split.batch_ms.len() as f64),
        ),
        ("sim.batch_ms_p50", quantile(&split.batch_ms, 0.5)),
        ("sim.batch_ms_p99", quantile(&split.batch_ms, 0.99)),
    ] {
        values.set(name, v);
    }
    Ok(Outcome {
        values,
        attempted: checker.attempted,
        failed: checker.failed,
        notes,
        traced_rounds: traced.len(),
    })
}
