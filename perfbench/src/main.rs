//! The benchmark command:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig1_lifetime|sweep_fortress|sweep_repair|serve_failover> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Prints the run metadata and every
//! end-to-end metric by name and unit, then, as the last line, one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}` with the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). A failed output check exits with code 1; bad arguments
//! exit with code 2 and print no result.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use perfbench::lab::{self, Sweep};
use perfbench::{crypto_probe, serve, trace, Report, LAYER_METRICS};

/// Where run records, span dumps and the socket directory go, relative
/// to the repository root the command runs from.
const OUT_DIR: &str = "perfbench/out";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
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
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(20.0),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn show(value: Option<f64>, unit: &str, why_absent: &str) -> String {
    value.map_or_else(|| format!("n/a ({why_absent})"), |v| format!("{v} {unit}"))
}

fn main() {
    let process_start = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    // Unix-domain sockets go under the checkout; a relative directory
    // keeps socket paths short.
    std::env::set_var("TMPDIR", format!("{OUT_DIR}/tmp"));

    let (seed, seconds, traced) = (args.seed, args.seconds, args.trace);
    let mut report: Report = match args.workload.as_str() {
        "fig1_lifetime" => lab::fig1(seed, seconds, traced),
        "sweep_fortress" => lab::sweep(Sweep::Fortress, seed, seconds, traced),
        "sweep_repair" => lab::sweep(Sweep::Repair, seed, seconds, traced),
        "serve_failover" => serve::serve(seed, seconds, traced),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            std::process::exit(2);
        }
    };
    if traced {
        crypto_probe::record(&mut report);
    }
    let rss = peak_rss_mb();
    let (failed_frac, basis) = match report.served {
        Some((sent, unanswered)) => (
            unanswered as f64 / sent.max(1) as f64,
            format!(
                "{unanswered} of {sent} reference-rate requests without a verified reply in time"
            ),
        ),
        None => (
            report.failed as f64 / report.attempted.max(1) as f64,
            format!("{} of {} checked outputs", report.failed, report.attempted),
        ),
    };
    let lab_only = "lab workload: no requests are served";
    let serve_only = "serve workload: runs no Monte-Carlo trials";
    let not_traced = if traced && report.served.is_some() {
        "the traced run has no ladder and no untraced crash"
    } else {
        lab_only
    };

    let mut text = String::new();
    let _ = writeln!(
        text,
        "# meta: workload={} seed={seed} seconds={seconds} trace={} nproc={} rustc=\"{}\" commit={} wall_s={:.3}",
        args.workload,
        u8::from(traced),
        perfbench::workers(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_COMMIT"),
        process_start.elapsed().as_secs_f64()
    );
    for note in &report.notes {
        let _ = writeln!(text, "# {note}");
    }
    let _ = writeln!(text, "setup_s        = {} s", report.setup_s);
    let _ = writeln!(text, "peak_rss_mb    = {rss} MB");
    let _ = writeln!(text, "failed_frac    = {failed_frac} ({basis})");
    let ops = if report.served.is_some() {
        "reference-rate requests per CPU-second, before the crash"
    } else {
        "trials per CPU-second"
    };
    let _ = writeln!(
        text,
        "ops_per_cpu_s  = {} 1/s ({ops})",
        report.ops_per_cpu_s
    );
    let _ = writeln!(
        text,
        "trials_per_s   = {}",
        show(report.trials_per_s, "1/s", serve_only)
    );
    if report.trials_per_s.is_some() {
        let _ = writeln!(text, "trials         = {}", report.trials);
    }
    let samples = format!("{} samples", report.latency_samples);
    let _ = writeln!(
        text,
        "p50_ms         = {} ({samples})",
        show(report.p50_ms, "ms", lab_only)
    );
    let _ = writeln!(
        text,
        "p99_ms         = {} ({samples})",
        show(report.p99_ms, "ms", lab_only)
    );
    let _ = writeln!(
        text,
        "capacity_rps   = {}",
        show(report.capacity_rps, "1/s", not_traced)
    );
    let _ = writeln!(
        text,
        "unavailable_ms = {}",
        show(report.unavailable_ms, "ms", not_traced)
    );
    if traced {
        for (name, unit) in LAYER_METRICS {
            let value = report.layers.get(name).map_or(0.0, |v| v.0);
            let _ = writeln!(text, "{name} = {value} {unit}");
        }
    }
    print!("{text}");

    let metrics: Vec<(&str, f64, &str)> = if traced {
        LAYER_METRICS
            .iter()
            .map(|&(name, unit)| (name, report.layers.get(name).map_or(0.0, |v| v.0), unit))
            .collect()
    } else {
        vec![
            ("setup_s", report.setup_s, "s"),
            ("peak_rss_mb", rss, "MB"),
            ("ops_per_cpu_s", report.ops_per_cpu_s, "1/s"),
        ]
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|&(name, value, unit)| {
            // JSON has no NaN or infinity; such a value is a benchmark bug.
            if !value.is_finite() {
                eprintln!("perfbench: metric {name} is {value}");
                report.correct = false;
            }
            let value = if value.is_finite() { value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.correct,
        report.attempted.max(1),
        report.failed,
        body.join(", ")
    );

    let stem = format!("{}-seed{seed}-trace{}", args.workload, u8::from(traced));
    let record = Path::new(OUT_DIR).join(format!("{stem}.txt"));
    let written = std::fs::create_dir_all(OUT_DIR)
        .and_then(|()| std::fs::write(&record, format!("{text}{result}\n")));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", record.display());
    }
    if traced {
        let spans = Path::new(OUT_DIR).join(format!("{stem}.spans.csv"));
        if let Err(e) = trace::write_csv(&spans, &report.spans) {
            eprintln!("perfbench: could not write {}: {e}", spans.display());
        }
    }
    println!("{result}");
    if !report.correct {
        std::process::exit(1);
    }
}
