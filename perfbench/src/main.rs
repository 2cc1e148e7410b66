//! `perfbench`: the repository's layer-attributed benchmark.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload pgbench-revoking --seed 1 --seconds 25 --trace 0
//! ```
//!
//! Runs one workload from a seed, checks every cell, and prints digests,
//! check failures and metrics, then one JSON result line. `--trace 0`
//! reports the end-to-end metrics (no spans recorded); `--trace 1`
//! reports the per-layer metrics from a run that records spans around
//! the benchmark's own calls into each layer, alternating with untraced
//! rounds so the difference prices the tracing. `--self-test` runs every
//! workload at a tiny size and checks the output contract; `--schema`
//! prints `BENCHMARK.json`. Every setting is a command-line argument.

mod cells;
mod host;
mod matrix;
mod metrics;
mod probes;
mod selftest;
mod trace;

use metrics::{ratio, Values};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use trace::Tracer;

const USAGE: &str =
    "usage: perfbench --workload NAME --seed N --seconds S --trace 0|1 [--spans-out PATH]\n\
       perfbench --self-test | --schema";

/// Share of a cell's time the layer spans may leave uncovered (loop
/// bookkeeping and op counting between the wrapped calls).
const STATED_RESIDUAL: f64 = 0.02;

/// One run's settings: the command line, plus the self-test's sizes and
/// fault injections.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub spans_out: Option<PathBuf>,
    /// Matrix cells whose key contains this substring panic (fault
    /// injection through `RunOptions::inject_panic`).
    pub inject_panic: Option<String>,
    /// The single-cell run's cell with this 1-based index is checked
    /// against a wrong expected op count (fault injection).
    pub inject_miscount: Option<u64>,
    /// Self-test sizes.
    pub tiny: bool,
}

/// Matrix worker threads: two, as on the reference host, and never more
/// than the cores this process may use.
#[must_use]
pub fn matrix_workers() -> usize {
    host::cores().min(2)
}

/// What a workload run measured.
pub struct Outcome {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Digest, check and summary lines, printed before the metrics.
    pub notes: Vec<String>,
    pub traced_rounds: usize,
}

enum Mode {
    Run(Args),
    SelfTest,
    Schema,
}

fn parse(argv: &[String]) -> Result<Mode, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut spans_out = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--self-test" => return Ok(Mode::SelfTest),
            "--schema" => return Ok(Mode::Schema),
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                });
            }
            "--spans-out" => spans_out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !metrics::WORKLOADS.iter().any(|w| w.name == workload) {
        let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {workload:?} ({})",
            names.join(", ")
        ));
    }
    Ok(Mode::Run(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        spans_out,
        inject_panic: None,
        inject_miscount: None,
        tiny: false,
    }))
}

/// A finished run: the lines to print and the result line.
pub struct Report {
    pub lines: Vec<String>,
    pub result: String,
    pub attempted: u64,
    pub failed: u64,
}

/// Runs one workload and renders its output.
///
/// # Errors
///
/// Configuration errors and metrics that could not be measured.
pub fn run(args: &Args, start: Instant) -> Result<Report, String> {
    let mut tracer = Tracer::new(false, start);
    let mut out = if args.workload == "matrix-smoke" {
        matrix::run(args, start, &mut tracer)?
    } else {
        cells::run(args, start, &mut tracer)?
    };
    let mut lines = vec![
        format!(
            "# perfbench workload={} seed={} seconds={} trace={} host_cores={} loadavg_1m={}",
            args.workload,
            args.seed,
            args.seconds,
            u8::from(args.trace),
            host::cores(),
            host::loadavg_1m()
        ),
        "# every modelled cell starts with empty caches and a fresh System; closed loop, cells back to back"
            .to_string(),
        "# the simulator is unvalidated against Morello hardware: digests and counters compare commits, \
         no simulated speed-up is reported"
            .to_string(),
    ];
    lines.append(&mut out.notes);
    let v = &mut out.values;
    if let Some(hits) = v.get("mem.l1_hits") {
        let misses: f64 = [
            "mem.l2_hits",
            "mem.dram_transactions.app",
            "mem.dram_transactions.revoker",
        ]
        .iter()
        .filter_map(|k| v.get(k))
        .sum();
        v.set("mem.l1_hit_ratio", ratio(hits, hits + misses));
    }
    if let (Some(checked), Some(revoked)) = (v.get("core.caps_checked"), v.get("core.caps_revoked"))
    {
        v.set("core.revoke_ratio", ratio(revoked, checked));
    }
    v.set("host.cores", host::cores() as f64);
    v.set("host.loadavg_1m", host::loadavg_1m());
    if args.trace {
        let p = probes::run(if args.tiny { 0.05 } else { 1.0 });
        for (name, ns) in [
            ("vm.load_cap_ns", p.load_cap),
            ("vm.store_cap_ns", p.store_cap),
            ("vm.write_data_4k_ns", p.write_data_4k),
            ("mem.touch_read_ns", p.touch_read),
            ("alloc.alloc_free_ns", p.alloc_free),
            ("core.sweep_ns_per_page", p.sweep_per_page),
            ("core.load_fault_ns", p.load_fault),
        ] {
            v.set(name, ns);
        }
        let rounds = out.traced_rounds.max(1) as f64;
        let own = tracer.self_seconds(1);
        for (layer, name) in [
            ("cell", "self.cell_s"),
            ("workloads", "self.workloads_s"),
            ("sim", "self.sim_s"),
            ("analyze", "self.analyze_s"),
            ("bench", "self.bench_s"),
        ] {
            v.set(name, own.get(layer).copied().unwrap_or(0.0) / rounds);
        }
        let uncovered = tracer.uncovered_share("cell");
        v.set("trace.spans", tracer.spans().len() as f64);
        v.set("trace.uncovered_share", uncovered);
        let unmeasured: Vec<&'static str> = metrics::PER_LAYER
            .iter()
            .map(|m| m.name)
            .filter(|n| v.get(n).is_none())
            .collect();
        for name in &unmeasured {
            v.set(name, 0.0);
        }
        if !unmeasured.is_empty() {
            lines.push(format!(
                "not measured on this workload, reported as 0: {}",
                unmeasured.join(" ")
            ));
        }
        lines.push(format!(
            "spans leave {:.2}% of cell time uncovered (stated residual {:.0}%: {})",
            uncovered * 100.0,
            STATED_RESIDUAL * 100.0,
            if uncovered <= STATED_RESIDUAL {
                "within"
            } else {
                "exceeded"
            }
        ));
        let path = args.spans_out.clone().unwrap_or_else(|| {
            PathBuf::from(".bench_out")
                .join(format!("spans-{}-s{}.jsonl", args.workload, args.seed))
        });
        tracer
            .write_jsonl(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        lines.push(format!(
            "spans: {} written to {}",
            tracer.spans().len(),
            path.display()
        ));
    }
    lines.push(format!(
        "failed_cell_ratio {} (failed {} of {} attempted cells)",
        out.failed as f64 / out.attempted.max(1) as f64,
        out.failed,
        out.attempted
    ));
    for (name, unit) in metrics::expected(args.trace) {
        if let Some(x) = v.get(name) {
            let target = metrics::PER_LAYER
                .iter()
                .find(|m| args.trace && m.name == name);
            let tail = target.map_or(String::new(), |m| format!(" (moves {})", m.moves));
            lines.push(format!("metric {name} {x} {unit}{tail}"));
        }
    }
    let result = metrics::result_line(v, args.trace, out.attempted, out.failed, out.failed == 0)?;
    Ok(Report {
        lines,
        result,
        attempted: out.attempted,
        failed: out.failed,
    })
}

fn main() -> ExitCode {
    let start = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse(&argv) {
        Ok(Mode::Run(args)) => args,
        Ok(Mode::Schema) => {
            print!("{}", metrics::benchmark_json());
            return ExitCode::SUCCESS;
        }
        Ok(Mode::SelfTest) => {
            return match selftest::run_all() {
                Ok(summary) => {
                    println!("{summary}");
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("perfbench self-test FAILED: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args, start) {
        Ok(report) => {
            for line in &report.lines {
                println!("{line}");
            }
            println!("{}", report.result);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
