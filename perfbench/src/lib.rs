//! End-to-end and per-layer benchmark of the FORTRESS lab and live stack.
//!
//! Four workloads (see `README.md` in this directory for why each was
//! chosen and how the metrics map onto each other):
//!
//! * `fig1_lifetime` — Figure 1 regeneration (`fortress_bench::figure1_with`);
//! * `sweep_fortress` — the paper-default S2 sweep through `SweepScheduler`;
//! * `sweep_repair` — the S0 view-change repair sweep;
//! * `serve_failover` — open-loop requests through an S2 stack over
//!   Unix-domain sockets, with a primary crash.
//!
//! Layers are timed from this package only: the benchmark wraps its own
//! calls into each layer's public functions ([`trace::span`]) and wraps
//! the transport ([`timed_net::Timed`]). Nothing inside the program is
//! instrumented.

#![forbid(unsafe_code)]

pub mod crypto_probe;
pub mod lab;
pub mod replay;
pub mod serve;
pub mod timed_net;
pub mod trace;

use std::collections::BTreeMap;
use std::time::Duration;

/// Every per-layer metric a traced run prints, with its unit. A metric
/// whose layer the workload does not exercise prints 0 (see `README.md`).
pub const LAYER_METRICS: &[(&str, &str)] = &[
    ("sim.runner.efficiency", "ratio"),
    ("sim.runner.straggler_frac", "ratio"),
    ("sim.runner.overhead_ns_per_trial", "ns"),
    ("sim.runner.steals", "count"),
    ("sim.event_mc.trial_ns", "ns"),
    ("model.analytic_us", "us"),
    ("core.system.build_us", "us"),
    ("core.system.reset_us", "us"),
    ("assembly.share", "ratio"),
    ("trial.steps", "count"),
    ("trial.step_us", "us"),
    ("attack.step_self_us", "us"),
    ("core.system.end_step_self_us", "us"),
    ("sim.outage.before_step_us", "us"),
    ("net.self_us_per_step", "us"),
    ("net.msgs_per_step", "count"),
    ("net.bytes_per_step", "bytes"),
    ("net.empty_drain_frac", "ratio"),
    ("replication.smr.view_changes", "count"),
    ("replication.state_transfer.units", "count"),
    ("replication.state_transfer.peak_queue", "count"),
    ("repair.trial.step_us", "us"),
    ("trial.coverage", "ratio"),
    ("core.client.request_us", "us"),
    ("core.client.verify_us", "us"),
    ("core.wire.decode_us", "us"),
    ("core.system.submit_us", "us"),
    ("core.system.pump_self_us", "us"),
    ("net.sock.send_us", "us"),
    ("net.sock.drain_us", "us"),
    ("net.sock.step_wait_us", "us"),
    ("net.msgs_per_request", "count"),
    ("net.bytes_per_request", "bytes"),
    ("core.system.end_step_us", "us"),
    ("core.system.failover_steps", "steps"),
    ("net.dead_lettered", "count"),
    ("net.closures", "count"),
    ("core.proxy.suspects", "count"),
    ("loadgen.lag_ms_p99", "ms"),
    ("loadgen.iter_us_p99", "us"),
    ("crypto.mac_us", "us"),
    ("crypto.sign_us", "us"),
    ("crypto.verify2_us", "us"),
    ("trace.overhead_frac", "ratio"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Report {
    /// Median set-up time, seconds.
    pub setup_s: f64,
    /// Operations per CPU-second of the process: trials on the lab
    /// workloads, reference-rate requests on serve.
    pub ops_per_cpu_s: f64,
    /// Trials completed per wall second (lab workloads).
    pub trials_per_s: Option<f64>,
    /// Trials completed in the timed window.
    pub trials: u64,
    /// Median request latency at the reference rate, ms (serve).
    pub p50_ms: Option<f64>,
    /// 99th-percentile request latency at the reference rate, ms (serve).
    pub p99_ms: Option<f64>,
    /// Latency samples behind `p50_ms` and `p99_ms`.
    pub latency_samples: u64,
    /// Highest offered rate meeting the latency limit, requests/s (serve).
    pub capacity_rps: Option<f64>,
    /// Mean time from a primary crash to the next served request, ms (serve).
    pub unavailable_ms: Option<f64>,
    /// Outputs that were checked: sweep cells and Figure 1 rows per pass
    /// (each against its reference), serve replies (each verified) and
    /// the transport accounting check.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
    /// Serve only: reference-rate requests sent, and those that got no
    /// verified reply within the timeout.
    pub served: Option<(u64, u64)>,
    /// Whether every output check passed.
    pub correct: bool,
    /// Per-layer metrics (traced runs): name → (value, unit).
    pub layers: BTreeMap<&'static str, (f64, &'static str)>,
    /// Human-readable lines describing the run.
    pub notes: Vec<String>,
    /// Spans recorded by a traced run.
    pub spans: Vec<trace::Span>,
}

impl Report {
    /// Records a per-layer metric.
    pub fn layer(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.layers.insert(name, (value, unit));
    }

    /// Records a failed output check.
    pub fn check_failed(&mut self, what: String) {
        self.correct = false;
        self.notes.push(format!("CHECK FAILED: {what}"));
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile of `xs` by the nearest-rank rule (0 for an empty
/// slice).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Seconds as f64.
pub fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// CPU time the process's live threads have run so far, ns: the sum of
/// the first field of every `/proc/self/task/*/schedstat`. The kernel
/// leaves out the time the host gave the virtual CPU to someone else
/// (steal), which on a shared VM moves wall-clock rates by tens of
/// percent from one minute to the next. A thread that exits takes its
/// time with it, so difference two readings only across a stretch in
/// which no thread exits. 0 when `/proc` cannot be read.
pub fn cpu_ns() -> u64 {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .filter_map(|task| {
            let stat = std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok()?;
            stat.split_whitespace().next()?.parse::<u64>().ok()
        })
        .sum()
}

/// Worker count for runners: one per available core.
pub fn workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let xs = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(quantile(&xs, 0.99), 5.0);
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn cpu_time_grows_with_work() {
        let before = cpu_ns();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
        }
        assert!(cpu_ns() > before, "{x}");
    }
}
