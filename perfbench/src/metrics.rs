//! The benchmark's registry: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics with the end-to-end metric
//! and workload each one should move. `BENCHMARK.json` is rendered from
//! these tables (`--schema`), and the self-test checks the checked-in
//! file against them.

use std::collections::BTreeMap;
use std::fmt::Write;

/// Seconds one run measures.
pub const RUN_SECONDS: u64 = 25;

/// A named workload and why it is in the benchmark.
pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

/// A metric a user of the system sees, with the share of the parent's
/// median by which it may worsen before a change is rejected.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub bound: f64,
}

/// A metric of one layer, from the traced run, and what it should move.
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    pub moves: &'static str,
}

#[rustfmt::skip]
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "pgbench-revoking",
        why: "pgbench cells alternating Cornucopia and Reloaded (Figs. 5-6): host time sits in exec_batch \
              while a revocation pass runs, so core, vm and mem changes show here",
    },
    WorkloadDef {
        name: "omnetpp-baseline",
        why: "SPEC omnetpp surrogate under Baseline: no revoker ever runs, so it bypasses core; cost sits in \
              op generation, alloc and the mem model on the fused dispatch path",
    },
    WorkloadDef {
        name: "xalancbmk-traced",
        why: "xalancbmk surrogate with full sim telemetry under Baseline and Reloaded: the only workload on \
              sim::telemetry and the unfused per-op path",
    },
    WorkloadDef {
        name: "matrix-smoke",
        why: "the 68-cell smoke MatrixPlan through orchestrator::run with 2 workers, preflight and a \
              checkpoint, then a resume pass: bench, analyze and System::new/finish dominate",
    },
];

#[rustfmt::skip]
pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd { name: "setup_s", unit: "s", better: "lower", bound: 0.25 },
    EndToEnd { name: "sim_ops_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "sim_ops_per_cpu_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "cells_per_s", unit: "1/s", better: "higher", bound: 0.25 },
    EndToEnd { name: "peak_host_rss_bytes", unit: "bytes", better: "lower", bound: 0.15 },
    EndToEnd { name: "passed_cell_ratio", unit: "ratio", better: "higher", bound: 0.01 },
];

const OMNET_OPS: &str = "sim_ops_per_s on omnetpp-baseline";
const PG_OPS: &str = "sim_ops_per_s on pgbench-revoking";
const XALAN: &str =
    "sim_ops_per_s and peak_host_rss_bytes on xalancbmk-traced; no untraced workload";
const MATRIX: &str = "cells_per_s and setup_s on matrix-smoke";

#[rustfmt::skip]
pub const PER_LAYER: [PerLayer; 68] = [
    PerLayer { name: "workloads.refill_s", unit: "s", better: "lower", moves: "sim_ops_per_s on omnetpp-baseline; under 1% of pgbench-revoking" },
    PerLayer { name: "workloads.ops", unit: "count", better: "higher", moves: OMNET_OPS },
    PerLayer { name: "workloads.share", unit: "ratio", better: "lower", moves: OMNET_OPS },
    PerLayer { name: "sim.new_s", unit: "s", better: "lower", moves: MATRIX },
    PerLayer { name: "sim.finish_s", unit: "s", better: "lower", moves: MATRIX },
    PerLayer { name: "sim.exec_idle_s", unit: "s", better: "lower", moves: OMNET_OPS },
    PerLayer { name: "sim.exec_revoking_s", unit: "s", better: "lower", moves: PG_OPS },
    PerLayer { name: "sim.batches_revoking_ratio", unit: "ratio", better: "lower", moves: PG_OPS },
    PerLayer { name: "sim.batch_ms_p50", unit: "ms", better: "lower", moves: "sim_ops_per_s on pgbench-revoking and omnetpp-baseline" },
    PerLayer { name: "sim.batch_ms_p99", unit: "ms", better: "lower", moves: PG_OPS },
    PerLayer { name: "sim.fusable_op_share", unit: "ratio", better: "higher", moves: XALAN },
    PerLayer { name: "telemetry.events", unit: "count", better: "lower", moves: XALAN },
    PerLayer { name: "telemetry.dropped_events", unit: "count", better: "lower", moves: XALAN },
    PerLayer { name: "telemetry.spans", unit: "count", better: "lower", moves: XALAN },
    PerLayer { name: "telemetry.samples", unit: "count", better: "lower", moves: XALAN },
    PerLayer { name: "telemetry.overhead_ratio", unit: "ratio", better: "lower", moves: XALAN },
    PerLayer { name: "alloc.allocs", unit: "count", better: "lower", moves: OMNET_OPS },
    PerLayer { name: "alloc.frees", unit: "count", better: "lower", moves: OMNET_OPS },
    PerLayer { name: "alloc.blocked_allocs", unit: "count", better: "lower", moves: OMNET_OPS },
    PerLayer { name: "alloc.revocations_requested", unit: "count", better: "lower", moves: OMNET_OPS },
    PerLayer { name: "alloc.alloc_free_ns", unit: "ns", better: "lower", moves: OMNET_OPS },
    PerLayer { name: "vm.tlb_misses", unit: "count", better: "lower", moves: "sim_ops_per_s on pgbench-revoking, Reloaded cells" },
    PerLayer { name: "vm.tlb_shootdowns", unit: "count", better: "lower", moves: "sim_ops_per_s on pgbench-revoking, Reloaded cells" },
    PerLayer { name: "vm.pte_writes", unit: "count", better: "lower", moves: "sim_ops_per_s on pgbench-revoking, Reloaded cells" },
    PerLayer { name: "vm.cap_dirty_sets", unit: "count", better: "lower", moves: "sim_ops_per_s on pgbench-revoking, Reloaded cells" },
    PerLayer { name: "vm.load_generation_faults", unit: "count", better: "lower", moves: "sim_ops_per_s on pgbench-revoking, Reloaded cells" },
    PerLayer { name: "vm.load_cap_ns", unit: "ns", better: "lower", moves: "sim_ops_per_s on pgbench-revoking, Reloaded cells" },
    PerLayer { name: "vm.store_cap_ns", unit: "ns", better: "lower", moves: "sim_ops_per_s on pgbench-revoking, Reloaded cells" },
    PerLayer { name: "vm.write_data_4k_ns", unit: "ns", better: "lower", moves: "sim_ops_per_s on pgbench-revoking, Reloaded cells" },
    PerLayer { name: "mem.l1_hits", unit: "count", better: "higher", moves: "sim_ops_per_s on omnetpp-baseline and pgbench-revoking" },
    PerLayer { name: "mem.l2_hits", unit: "count", better: "higher", moves: "sim_ops_per_s on omnetpp-baseline and pgbench-revoking" },
    PerLayer { name: "mem.l1_hit_ratio", unit: "ratio", better: "higher", moves: "sim_ops_per_s on omnetpp-baseline and pgbench-revoking" },
    PerLayer { name: "mem.dram_transactions.app", unit: "count", better: "lower", moves: OMNET_OPS },
    PerLayer { name: "mem.dram_transactions.revoker", unit: "count", better: "lower", moves: PG_OPS },
    PerLayer { name: "mem.touch_read_ns", unit: "ns", better: "lower", moves: "sim_ops_per_s on omnetpp-baseline and pgbench-revoking" },
    PerLayer { name: "core.epochs", unit: "count", better: "lower", moves: "sim_ops_per_s on pgbench-revoking; no effect on omnetpp-baseline" },
    PerLayer { name: "core.pages_swept", unit: "count", better: "lower", moves: PG_OPS },
    PerLayer { name: "core.pages_visited_clean", unit: "count", better: "lower", moves: PG_OPS },
    PerLayer { name: "core.caps_checked", unit: "count", better: "lower", moves: PG_OPS },
    PerLayer { name: "core.caps_revoked", unit: "count", better: "lower", moves: PG_OPS },
    PerLayer { name: "core.revoke_ratio", unit: "ratio", better: "higher", moves: PG_OPS },
    PerLayer { name: "core.load_faults", unit: "count", better: "lower", moves: PG_OPS },
    PerLayer { name: "core.stw_cycles", unit: "cycles", better: "lower", moves: PG_OPS },
    PerLayer { name: "core.concurrent_cycles", unit: "cycles", better: "lower", moves: PG_OPS },
    PerLayer { name: "core.sweep_ns_per_page", unit: "ns", better: "lower", moves: "sim_ops_per_s on pgbench-revoking; no effect on omnetpp-baseline" },
    PerLayer { name: "core.load_fault_ns", unit: "ns", better: "lower", moves: PG_OPS },
    PerLayer { name: "analyze.preflight_s", unit: "s", better: "lower", moves: "cells_per_s on matrix-smoke" },
    PerLayer { name: "analyze.ops_per_s", unit: "1/s", better: "higher", moves: "cells_per_s on matrix-smoke" },
    PerLayer { name: "bench.plan_build_s", unit: "s", better: "lower", moves: MATRIX },
    PerLayer { name: "bench.run_s", unit: "s", better: "lower", moves: MATRIX },
    PerLayer { name: "bench.resume_s", unit: "s", better: "lower", moves: MATRIX },
    PerLayer { name: "bench.checkpoint_bytes", unit: "bytes", better: "lower", moves: MATRIX },
    PerLayer { name: "bench.attempts", unit: "count", better: "lower", moves: MATRIX },
    PerLayer { name: "self.cell_s", unit: "s", better: "lower", moves: "every workload: time no layer span covers" },
    PerLayer { name: "self.workloads_s", unit: "s", better: "lower", moves: OMNET_OPS },
    PerLayer { name: "self.sim_s", unit: "s", better: "lower", moves: "sim_ops_per_s on pgbench-revoking and omnetpp-baseline" },
    PerLayer { name: "self.analyze_s", unit: "s", better: "lower", moves: "cells_per_s on matrix-smoke" },
    PerLayer { name: "self.bench_s", unit: "s", better: "lower", moves: MATRIX },
    PerLayer { name: "trace.spans", unit: "count", better: "lower", moves: "none: the traced run's own span count" },
    PerLayer { name: "trace.uncovered_share", unit: "ratio", better: "lower", moves: "none: cell time left outside layer spans" },
    PerLayer { name: "trace.overhead_ratio", unit: "ratio", better: "lower", moves: "none: traced over untraced round time, minus 1" },
    PerLayer { name: "trace.rounds", unit: "count", better: "higher", moves: "none: traced rounds behind the figures above" },
    PerLayer { name: "cell.wall_s_p50", unit: "s", better: "lower", moves: "cells_per_s on the same workload" },
    PerLayer { name: "cell.wall_s_max", unit: "s", better: "lower", moves: "cells_per_s on the same workload" },
    PerLayer { name: "cell.samples", unit: "count", better: "higher", moves: "none: timed rounds behind the cell figures" },
    PerLayer { name: "host.cores", unit: "count", better: "higher", moves: "none: host record" },
    PerLayer { name: "host.loadavg_1m", unit: "load", better: "lower", moves: "none: host record" },
    PerLayer { name: "host.cpu_share", unit: "ratio", better: "higher", moves: "none: CPU over wall time of the timed rounds" },
];

/// Renders `BENCHMARK.json` from the tables above.
#[must_use]
pub fn benchmark_json() -> String {
    let mut s = String::new();
    s.push_str("{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"-q\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {RUN_SECONDS},");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{sep}",
            m.name, m.unit, m.better, m.bound
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{sep}",
            m.name, m.unit, m.better
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// The values one run measured, keyed by metric name.
#[derive(Debug, Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    /// Records `value` for `name`.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// The value recorded for `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

/// `(name, unit)` of every metric a run with `trace` must print.
#[must_use]
pub fn expected(trace: bool) -> Vec<(&'static str, &'static str)> {
    if trace {
        PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
    } else {
        END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
    }
}

/// The result line: `{"correct":..,"attempted":..,"failed":..,"metrics":{..}}`.
/// A metric the run did not record, or a non-finite value, is an error.
///
/// # Errors
///
/// Names the first missing or non-finite metric.
pub fn result_line(
    values: &Values,
    trace: bool,
    attempted: u64,
    failed: u64,
    correct: bool,
) -> Result<String, String> {
    let mut body = Vec::new();
    for (name, unit) in expected(trace) {
        let v = values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !v.is_finite() {
            return Err(format!("metric {name} is not finite ({v})"));
        }
        body.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    Ok(format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    ))
}

/// How a timed round (a pass, for the matrix) ran.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Spans recorded.
    Traced,
    /// No spans; the workload's own simulator telemetry setting.
    Plain,
    /// No spans and simulator telemetry off.
    NoTelemetry,
}

/// Host time and work of one timed round.
#[derive(Debug, Clone, Copy)]
pub struct Timed {
    pub kind: Kind,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Cells that completed.
    pub cells: u64,
    /// Simulated ops of the cells that passed their checks.
    pub ops: u64,
}

/// The quantile of per-round rates the end-to-end rates report: the
/// lower quartile, the rate three rounds in four reach. On a shared host
/// the machine speeds up for a few seconds at a time; those phases lift
/// the upper rounds, so the median flips between runs while the lower
/// quartile stays put. With 40 or more rounds, at least ten lie beyond it.
pub const RATE_QUANTILE: f64 = 0.25;

/// Records the metrics every workload derives the same way: the
/// end-to-end figures (the `RATE_QUANTILE` of untraced rounds), the
/// cell-time and CPU-share figures, and the tracing and telemetry
/// overheads.
pub fn summarize(
    values: &mut Values,
    setup: &[f64],
    rounds: &[Timed],
    attempted: u64,
    failed: u64,
) {
    let of = |k: Kind| rounds.iter().filter(move |r| r.kind == k);
    let median_of = |k: Kind, f: &dyn Fn(&Timed) -> f64| median(&of(k).map(f).collect::<Vec<_>>());
    let rate = |f: &dyn Fn(&Timed) -> f64| {
        quantile(&of(Kind::Plain).map(f).collect::<Vec<_>>(), RATE_QUANTILE)
    };
    values.set("setup_s", median(setup));
    values.set("sim_ops_per_s", rate(&|r| ratio(r.ops as f64, r.wall_s)));
    values.set("sim_ops_per_cpu_s", rate(&|r| ratio(r.ops as f64, r.cpu_s)));
    values.set("cells_per_s", rate(&|r| ratio(r.cells as f64, r.wall_s)));
    values.set("peak_host_rss_bytes", crate::host::peak_rss_bytes() as f64);
    values.set(
        "passed_cell_ratio",
        ratio(attempted.saturating_sub(failed) as f64, attempted as f64),
    );
    let cpu: f64 = of(Kind::Plain).map(|r| r.cpu_s).sum();
    let wall: f64 = of(Kind::Plain).map(|r| r.wall_s).sum();
    values.set("host.cpu_share", ratio(cpu, wall));
    let cell_walls: Vec<f64> = of(Kind::Plain)
        .map(|r| ratio(r.wall_s, r.cells as f64))
        .collect();
    values.set("cell.wall_s_p50", median(&cell_walls));
    values.set("cell.wall_s_max", quantile(&cell_walls, 1.0));
    values.set("cell.samples", cell_walls.len() as f64);
    let wall_of = |k: Kind| median_of(k, &|r| r.wall_s);
    let overhead = |a: f64, b: f64| if a > 0.0 && b > 0.0 { a / b - 1.0 } else { 0.0 };
    values.set(
        "trace.overhead_ratio",
        overhead(wall_of(Kind::Traced), wall_of(Kind::Plain)),
    );
    values.set(
        "telemetry.overhead_ratio",
        overhead(wall_of(Kind::Plain), wall_of(Kind::NoTelemetry)),
    );
    values.set("trace.rounds", of(Kind::Traced).count() as f64);
}

/// `num / den`, or 0 when `den` is not positive (a layer or round that
/// did not occur).
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Median of `xs` (0 for an empty slice).
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q` quantile of `xs` by linear interpolation (0 when empty).
#[must_use]
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}
