//! The benchmark's self-test: `BENCHMARK.json` matches the registry,
//! every workload runs at a tiny size and prints every metric with its
//! unit in both modes, and injected faults are counted as failed cells
//! without stopping the run.

use crate::metrics::{self, WORKLOADS};
use crate::{run, Args};
use std::time::Instant;

fn tiny(workload: &str, trace: bool) -> Args {
    Args {
        workload: workload.to_string(),
        seed: 0,
        seconds: 0.2,
        trace,
        spans_out: None,
        inject_panic: None,
        inject_miscount: None,
        tiny: true,
    }
}

/// Runs the self-test; a one-line summary on success.
///
/// # Errors
///
/// The first contract violation found.
pub fn run_all() -> Result<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let on_disk = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    if on_disk != metrics::benchmark_json() {
        return Err("BENCHMARK.json differs from `perfbench --schema`".into());
    }
    let mut runs = 0;
    for w in &WORKLOADS {
        for trace in [false, true] {
            let r = run(&tiny(w.name, trace), Instant::now())?;
            runs += 1;
            for (name, unit) in metrics::expected(trace) {
                let needle = format!("\"{name}\": {{\"value\": ");
                let unit_tag = format!("\"unit\": \"{unit}\"}}");
                let at = r
                    .result
                    .find(&needle)
                    .ok_or_else(|| format!("{} trace={trace}: {name} missing", w.name))?;
                if !r.result[at..].contains(&unit_tag) {
                    return Err(format!(
                        "{} trace={trace}: {name} lacks unit {unit}",
                        w.name
                    ));
                }
            }
            if r.failed != 0 || !r.result.starts_with("{\"correct\": true") {
                return Err(format!(
                    "{} trace={trace}: {} of {} cells failed: {:?}",
                    w.name, r.failed, r.attempted, r.lines
                ));
            }
            if !r.lines.iter().any(|l| l.starts_with("digest ")) {
                return Err(format!("{}: no digest printed", w.name));
            }
        }
    }
    // Injected faults: counted, and the run goes on to the end.
    let mut a = tiny("matrix-smoke", false);
    a.inject_panic = Some("grpc|gRPC QPS|Reloaded".to_string());
    let r = run(&a, Instant::now())?;
    if r.failed != 1 || r.attempted < 2 || !r.result.contains("\"correct\": false") {
        return Err(format!(
            "matrix panic injection: failed {} of {} (want 1)",
            r.failed, r.attempted
        ));
    }
    let mut a = tiny("pgbench-revoking", false);
    a.inject_miscount = Some(2);
    let r = run(&a, Instant::now())?;
    if r.failed != 1
        || r.attempted < 3
        || !r.result.contains("\"passed_cell_ratio\": {\"value\": 0.")
    {
        return Err(format!(
            "op-count injection: failed {} of {} (want 1)",
            r.failed, r.attempted
        ));
    }
    Ok(format!(
        "perfbench self-test passed: {runs} tiny runs, 2 injected faults counted"
    ))
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        super::run_all().expect("self-test");
    }
}
