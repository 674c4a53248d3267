//! The repository benchmark: three seeded workloads that drive
//! different layers of the multi-model database through their public
//! APIs, reporting end-to-end metrics (untraced runs) or per-layer
//! metrics (traced runs).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest|multi_model|equiv_check> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Every metric is printed by name with its unit, followed by the
//! correctness checks; the last line of standard output is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`.

mod device;
mod equiv_check;
mod ingest;
mod multi_model;
mod stats;
mod svc;
mod trace;

use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with tracing off.
/// `op_p50_ms` is the workload's own operation: an open-loop commit on
/// ingest, a closed-loop commit on multi_model, a warm re-check (mean of
/// four consecutive ones) on equiv_check. `batch_s` is the workload's
/// one-off job: the restart on ingest and multi_model, the audit batch
/// on equiv_check. Tail latencies are printed by each workload but not
/// listed here: on a shared host they follow the host's scheduler more
/// than the program.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("op_p50_ms", "ms"),
    ("ops_per_s", "1/s"),
    ("batch_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, reported by every workload with tracing on; a
/// layer a workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 38] = [
    ("net.rtt_overhead_us_p50", "us"),
    ("wire.codec_us_per_req", "us"),
    ("wire.bytes_per_req", "B"),
    ("service.handle_us_p50", "us"),
    ("service.self_us_per_txn", "us"),
    ("shard.txns_per_sync", "txn/sync"),
    ("shard.shed_count", "count"),
    ("session.open_us_p50", "us"),
    ("session.retries_per_commit", "ratio"),
    ("device.wal_syncs", "count"),
    ("device.wal_sync_busy_ms", "ms"),
    ("device.wal_bytes_per_txn", "B"),
    ("device.checkpoint_bytes", "B"),
    ("device.checkpoint_busy_ms", "ms"),
    ("device.checkpoint_stall_ms_max", "ms"),
    ("device.wal_truncated_bytes", "B"),
    ("wal.replay_ms_per_mb", "ms/MB"),
    ("recovery.replayed_bytes", "B"),
    ("recovery.chained_checkpoints", "count"),
    ("storage.durable_bytes_per_txn", "B"),
    ("translate.rel_to_graph_us_p50", "us"),
    ("translate.graph_to_rel_us_p50", "us"),
    ("translate.calls_per_commit", "ratio"),
    ("view.materialize_ms", "ms"),
    ("view.read_us_p50", "us"),
    ("closure.ms", "ms"),
    ("closure.ns_per_state", "ns"),
    ("arena.hit_rate", "ratio"),
    ("engine.reachability_ms", "ms"),
    ("engine.pairing_ms", "ms"),
    ("engine.signatures_ms", "ms"),
    ("engine.nodes_expanded", "count"),
    ("incremental.transition_reuse_rate", "ratio"),
    ("incremental.verdict_hit_rate", "ratio"),
    ("symbolic.find_ms", "ms"),
    ("trace.overhead_pct", "%"),
    ("trace.path_sum_error_pct", "%"),
    ("loadgen.lag_ms_p99", "ms"),
];

#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// What one workload run produced.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Correctness checks of the program's outputs: a description and
    /// whether it held. A failed one fails the run.
    pub checks: Vec<(String, bool)>,
    /// Run-hygiene conditions (pacer lateness, trace path sums) that
    /// depend on how busy the host was rather than on the program: one
    /// that does not hold marks the run invalid in the report but does
    /// not fail it.
    pub validity: Vec<(String, bool)>,
    /// Metrics by name (end-to-end, per-layer and the workload's own
    /// named figures); units come from the tables above or the entry.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Free-form report lines (settings, sample counts, breakdowns).
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push((name, value, unit));
    }

    pub fn check(&mut self, what: impl Into<String>, ok: bool) {
        self.checks.push((what.into(), ok));
    }

    pub fn validity(&mut self, what: impl Into<String>, ok: bool) {
        self.validity.push((what.into(), ok));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .rev()
            .find(|(n, _, _)| *n == name)
            .map(|m| m.1)
    }
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// Makes every thread allocate from one glibc malloc arena. With the
/// default per-thread arenas, which thread happens to clone or free a
/// large state decides how much memory stays resident, and the peak
/// resident size then varies from run to run by more than any change
/// worth measuring.
fn single_malloc_arena() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: mallopt only adjusts allocator tuning; it is called
        // before this process starts any other thread.
        unsafe {
            mallopt(M_ARENA_MAX, 1);
        }
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <ingest|multi_model|equiv_check> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    trace::now_ns();
    single_malloc_arena();
    let mut out = match args.workload.as_str() {
        "ingest" => ingest::run(&args),
        "multi_model" => multi_model::run(&args),
        "equiv_check" => equiv_check::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    out.metric("peak_rss_mb", stats::peak_rss_mb(), "MB");

    println!(
        "== perfbench {} (seed {}, {} s, trace {}, nproc {}, release build) ==",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        stats::nproc()
    );
    for line in &out.notes {
        println!("{line}");
    }
    for (name, value, unit) in &out.metrics {
        println!("{name:<36} {value:>14.4} {unit}");
    }
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    println!("{:<36} {failed_ratio:>14.4} fraction", "failed_ratio");
    for (what, ok) in &out.checks {
        println!("check {}: {what}", if *ok { "ok  " } else { "FAIL" });
        if !ok {
            eprintln!("perfbench: check failed: {what}");
        }
    }
    for (what, ok) in &out.validity {
        println!("valid {}: {what}", if *ok { "ok  " } else { "NO  " });
        if !ok {
            eprintln!("perfbench: run invalid (not a failure): {what}");
        }
    }
    if out.failed > 0 {
        eprintln!(
            "perfbench: {} of {} operations failed",
            out.failed, out.attempted
        );
    }

    let table: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut correct = out.checks.iter().all(|(_, ok)| *ok) && out.failed == 0;
    let mut fields = Vec::with_capacity(table.len());
    for (name, unit) in table {
        let value = match out.value(name) {
            Some(v) => v,
            None if args.trace => 0.0,
            None => {
                println!("check FAIL: end-to-end metric {name} was not measured");
                eprintln!("perfbench: end-to-end metric {name} was not measured");
                correct = false;
                0.0
            }
        };
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted.max(1),
        out.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
