//! The lab workloads: Figure 1 regeneration and the two protocol sweeps.
//!
//! Each untraced run sets up several times (median reported), then runs
//! whole passes of the workload on a runner with one worker per core
//! until the window closes, timing each pass in wall and CPU time, then
//! checks every pass against a reference computed outside the window:
//! the 1-thread pass for the sweeps (cell by cell, which also gives each
//! cell's single-worker time), the 1-thread pass plus the analytic model
//! for Figure 1. `ops_per_cpu_s` is trials per pass ÷ median pass CPU
//! time; `trials_per_s` the same over median pass wall time.
//!
//! The traced run splits its window between untraced passes and a traced
//! replay (Figure 1: a span-annotated copy of `figure1_with`'s loop;
//! sweeps: [`crate::replay`] over sampled trials), and reports per-layer
//! metrics and the tracing overhead.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use fortress_bench::{figure1_with, PAPER_CHI};
use fortress_core::system::Stack;
use fortress_markov::LaunchPad;
use fortress_model::lifetime::figure1_systems;
use fortress_model::params::{paper_alpha_params, paper_kappa_grid};
use fortress_net::sim::SimNet;
use fortress_sim::event_mc::sample_lifetime;
use fortress_sim::report::fmt_num;
use fortress_sim::runner::{trial_seed, Runner, TrialBudget};
use fortress_sim::scenario::{
    paper_default_sweep, repair_sweep, Scenario, SweepCell, SweepOutcome, SweepScheduler,
};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::replay::{replay, replayable, stack_config};
use crate::trace::{self, span};
use crate::{cpu_ns, median, secs, workers, Report};

/// Set-ups per run: repeated for at least this long (and at least
/// [`SETUP_MIN_REPEATS`] times), and the median reported. Set-up takes
/// from tens of microseconds to a millisecond, and on a shared VM the
/// speed of such short work swings by tens of percent from one 50 ms
/// stretch to the next, so the repeats are spread over half a second.
const SETUP_SECONDS: f64 = 0.5;
/// Fewest set-ups per run.
const SETUP_MIN_REPEATS: usize = 25;

/// Figure 1 rows: α points per decade (7 rows over the paper's grid).
const FIG1_PPD: usize = 2;
/// Smallest per-cell trial budget; the seed adds up to 8k.
const FIG1_BASE_TRIALS: u64 = 40_000;
/// Stated tolerance: every Monte-Carlo cell within 3% of the analytic
/// expected lifetime. At ≥ 40k trials the relative standard error of a
/// cell is about 0.5%, so this is six standard errors.
const FIG1_TOLERANCE: f64 = 0.03;
/// Event-driven samples per Figure 1 cell in the per-trial cost loop.
const FIG1_COST_SAMPLES: u64 = 20_000;

/// The adaptive per-cell budget the `campaign` binary sweeps with.
const SWEEP_BUDGET: TrialBudget = TrialBudget::TargetRse {
    target: 0.05,
    min_trials: 64,
    max_trials: 512,
    batch: 64,
};

/// Runs the set-up `f` repeatedly (see [`SETUP_SECONDS`]); returns the
/// median time and the last result.
pub(crate) fn setup_median<R>(mut f: impl FnMut() -> R) -> (f64, R) {
    let mut times = Vec::new();
    let mut last = None;
    let start = Instant::now();
    while times.len() < SETUP_MIN_REPEATS || secs(start.elapsed()) < SETUP_SECONDS {
        drop(last.take());
        let t = Instant::now();
        let out = f();
        times.push(secs(t.elapsed()));
        last = Some(out);
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Figure 1 inputs from the seed: κ from the paper's grid (0.1–1.0) and
/// the per-cell trial budget.
fn fig1_inputs(seed: u64) -> (f64, u64) {
    let kappa = paper_kappa_grid()[1 + (seed % 10) as usize];
    (kappa, FIG1_BASE_TRIALS + 1_000 * ((seed / 10) % 9))
}

/// Parses a Figure 1 CSV into rows of numbers (α, then analytic/MC pairs).
fn fig1_rows(csv: &str) -> Vec<Vec<f64>> {
    csv.lines()
        .skip(1)
        .map(|line| {
            line.split(',')
                .map(|c| {
                    c.trim_matches('"')
                        .parse()
                        .expect("figure cells are numbers")
                })
                .collect()
        })
        .collect()
}

/// The largest |MC / analytic − 1| in a row.
fn fig1_row_error(row: &[f64]) -> f64 {
    row[1..]
        .chunks(2)
        .map(|pair| (pair[1] / pair[0] - 1.0).abs())
        .fold(0.0, f64::max)
}

/// A span-annotated copy of `figure1_with`'s loop: the same cells, seeds
/// and formatting, so its CSV must equal `figure1_with`'s. Returns the
/// CSV and each cell's wall time.
fn fig1_replica(runner: &Runner, kappa: f64, budget: TrialBudget) -> (String, Vec<f64>) {
    let systems = figure1_systems(kappa);
    let mut csv = String::from("alpha");
    for s in &systems {
        csv.push_str(&format!(",{0}_analytic,{0}_mc", s.label()));
    }
    csv.push('\n');
    let mut cell_secs = Vec::new();
    for (i, (alpha, params)) in paper_alpha_params(FIG1_PPD, PAPER_CHI)
        .expect("grid is valid")
        .into_iter()
        .enumerate()
    {
        csv.push_str(&fmt_num(alpha));
        for (j, s) in systems.iter().enumerate() {
            trace::set_id((i * systems.len() + j) as u64);
            let t = Instant::now();
            let analytic = span("model.analytic", || {
                s.expected_lifetime(&params).expect("valid spec")
            });
            let (kind, policy) = (s.kind, s.policy);
            let mc = span("sim.event_mc.cell", || {
                runner
                    .run(0x51 + i as u64, budget, move |_, rng| {
                        sample_lifetime(kind, policy, &params, LaunchPad::NextStep, rng) as f64
                    })
                    .mean()
            });
            cell_secs.push(secs(t.elapsed()));
            csv.push_str(&format!(",{},{}", fmt_num(analytic), fmt_num(mc)));
        }
        csv.push('\n');
    }
    (csv, cell_secs)
}

/// Mean cost of one event-driven trial over every Figure 1 cell, in ns,
/// timed in a plain loop with no runner around it.
fn fig1_trial_ns(kappa: f64) -> f64 {
    let mut rng = SmallRng::seed_from_u64(0x51);
    let mut n = 0u64;
    let t = Instant::now();
    for (_, params) in paper_alpha_params(FIG1_PPD, PAPER_CHI).expect("grid is valid") {
        for s in figure1_systems(kappa) {
            for _ in 0..FIG1_COST_SAMPLES {
                black_box(sample_lifetime(
                    s.kind,
                    s.policy,
                    &params,
                    LaunchPad::NextStep,
                    &mut rng,
                ));
                n += 1;
            }
        }
    }
    t.elapsed().as_nanos() as f64 / n as f64
}

/// What [`passes`] measured.
struct Passes<R> {
    /// Wall time per pass, s.
    walls: Vec<f64>,
    /// CPU time per pass summed over the process's threads, s.
    cpus: Vec<f64>,
    outs: Vec<R>,
}

/// Passes of `f` until `window` has elapsed (at least one), each timed
/// in wall and CPU time. The runner's pool lives through the window, so
/// no thread exits while [`cpu_ns`] is differenced.
fn passes<R>(window: Duration, mut f: impl FnMut() -> R) -> Passes<R> {
    let start = Instant::now();
    let mut p = Passes {
        walls: Vec::new(),
        cpus: Vec::new(),
        outs: Vec::new(),
    };
    while p.walls.is_empty() || start.elapsed() < window {
        let (t, c) = (Instant::now(), cpu_ns());
        p.outs.push(f());
        p.cpus.push(cpu_ns().saturating_sub(c) as f64 / 1e9);
        p.walls.push(secs(t.elapsed()));
    }
    p
}

/// The `fig1_lifetime` workload.
pub fn fig1(seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let (kappa, per_cell) = fig1_inputs(seed);
    let budget = TrialBudget::Fixed(per_cell);
    let (setup_s, runner) = setup_median(|| {
        let runner = Runner::with_threads(workers());
        black_box(paper_alpha_params(FIG1_PPD, PAPER_CHI).expect("grid is valid"));
        black_box(figure1_systems(kappa));
        runner
    });
    report.setup_s = setup_s;

    let window = Duration::from_secs_f64(if traced { seconds * 0.4 } else { seconds });
    let Passes {
        walls,
        cpus,
        outs: tables,
    } = passes(window, || {
        figure1_with(&runner, FIG1_PPD, kappa, budget).to_csv()
    });
    let reference = figure1_with(&Runner::with_threads(1), FIG1_PPD, kappa, budget).to_csv();

    let rows = fig1_rows(&reference);
    let trials_per_pass = rows.len() as u64 * 5 * per_cell;
    let errors: Vec<f64> = rows.iter().map(|row| fig1_row_error(row)).collect();
    for (row, &err) in rows.iter().zip(&errors) {
        if err > FIG1_TOLERANCE {
            report.check_failed(format!(
                "fig1 row alpha {}: MC off the analytic value by {:.2}% > {:.0}%",
                row[0],
                100.0 * err,
                100.0 * FIG1_TOLERANCE
            ));
        }
    }
    let worst = errors.iter().copied().fold(0.0, f64::max);
    let off_tolerance = errors.iter().filter(|&&e| e > FIG1_TOLERANCE).count();
    for table in &tables {
        let differing = table
            .lines()
            .zip(reference.lines())
            .filter(|(a, b)| a != b)
            .count();
        if differing > 0 || table.lines().count() != reference.lines().count() {
            report.check_failed(format!(
                "fig1 pass differs from the 1-thread reference in {differing} rows"
            ));
        }
        report.attempted += rows.len() as u64;
        report.failed += differing.max(off_tolerance) as u64;
    }
    let pooled = median(&walls);
    report.trials = trials_per_pass * walls.len() as u64;
    report.trials_per_s = Some(trials_per_pass as f64 / pooled);
    report.ops_per_cpu_s = trials_per_pass as f64 / median(&cpus);
    report.notes.push(format!(
        "fig1: kappa {kappa}, {per_cell} trials/cell, {} rows, {trials_per_pass} trials/pass, {} passes, \
         median pass {:.4} s wall, {:.4} s CPU; worst MC/analytic error {:.3}% (tolerance {:.0}%)",
        rows.len(),
        walls.len(),
        pooled,
        median(&cpus),
        100.0 * worst,
        100.0 * FIG1_TOLERANCE
    ));

    if traced {
        let window = Duration::from_secs_f64(seconds * 0.4);
        let (_, serial_cells) = fig1_replica(&Runner::with_threads(1), kappa, budget);
        trace::enable();
        let Passes {
            walls: traced_walls,
            outs: replicas,
            ..
        } = passes(window, || {
            span("pass", || fig1_replica(&runner, kappa, budget).0)
        });
        let spans = trace::take();
        let differing = replicas.iter().filter(|csv| **csv != reference).count();
        report.attempted += replicas.len() as u64;
        report.failed += differing as u64;
        if differing > 0 {
            report.check_failed(format!(
                "{differing} traced replica passes differ from figure1_with"
            ));
        }
        let totals = trace::self_times(&spans);
        let trial_ns = fig1_trial_ns(kappa);
        let w = runner.threads() as f64;
        let serial: f64 = serial_cells.iter().sum();
        let slowest = serial_cells.iter().copied().fold(0.0, f64::max);
        report.layer("sim.runner.efficiency", serial / (w * pooled), "ratio");
        report.layer("sim.runner.straggler_frac", slowest / pooled, "ratio");
        report.layer(
            "sim.runner.overhead_ns_per_trial",
            (w * pooled * 1e9 - trial_ns * trials_per_pass as f64) / trials_per_pass as f64,
            "ns",
        );
        report.layer("sim.runner.steals", runner.steals() as f64, "count");
        report.layer("sim.event_mc.trial_ns", trial_ns, "ns");
        let analytic = totals.get("model.analytic").copied().unwrap_or_default();
        report.layer(
            "model.analytic_us",
            analytic.total_ns as f64 / 1e3 / analytic.count.max(1) as f64,
            "us",
        );
        let pass = totals.get("pass").copied().unwrap_or_default();
        report.layer(
            "trial.coverage",
            1.0 - pass.self_ns as f64 / pass.total_ns.max(1) as f64,
            "ratio",
        );
        report.layer(
            "trace.overhead_frac",
            median(&traced_walls) / pooled - 1.0,
            "ratio",
        );
        report.spans = spans;
    }
    report
}

/// Which protocol sweep to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sweep {
    /// `scenario::paper_default_sweep`.
    Fortress,
    /// `scenario::repair_sweep`.
    Repair,
}

impl Sweep {
    /// The sweep's cells under `seed`.
    pub fn cells(self, seed: u64) -> Vec<SweepCell> {
        match self {
            Sweep::Fortress => paper_default_sweep(seed),
            Sweep::Repair => repair_sweep(seed),
        }
    }

    /// Trials replayed per cell in the traced run.
    fn replayed_per_cell(self) -> u64 {
        match self {
            Sweep::Fortress => 4,
            Sweep::Repair => 6,
        }
    }
}

/// A cell outcome's source of truth (trial statistics and availability
/// accumulators), printed exactly: `{:?}` of an `f64` round-trips.
fn outcome_key(o: &SweepOutcome) -> String {
    format!("{:?}|{:?}", o.stats, o.avail)
}

/// The `sweep_fortress` and `sweep_repair` workloads.
pub fn sweep(which: Sweep, seed: u64, seconds: f64, traced: bool) -> Report {
    let mut report = Report {
        correct: true,
        ..Report::default()
    };
    let (setup_s, (runner, cells)) = setup_median(|| {
        let runner = Runner::with_threads(workers());
        let cells = which.cells(seed);
        for cell in &cells {
            if let Some((exp, _)) = replayable(&cell.spec) {
                black_box(Stack::new(stack_config(&exp, cell.seed)).expect("cells assemble"));
            }
        }
        (runner, cells)
    });
    report.setup_s = setup_s;

    let window = Duration::from_secs_f64(if traced { seconds * 0.35 } else { seconds });
    let scheduler = SweepScheduler::new(&runner, SWEEP_BUDGET);
    let Passes {
        walls,
        cpus,
        outs: outcomes,
    } = passes(window, || {
        let r = scheduler.run(&cells);
        let trials: u64 = r.cells.iter().map(|o| o.estimate.n).sum();
        (trials, r.cells.iter().map(outcome_key).collect::<Vec<_>>())
    });

    // The 1-thread reference, cell by cell, outside the window.
    let serial_runner = Runner::with_threads(1);
    let mut serial_cells = Vec::with_capacity(cells.len());
    let mut reference = Vec::with_capacity(cells.len());
    for cell in &cells {
        let t = Instant::now();
        let r = SweepScheduler::new(&serial_runner, SWEEP_BUDGET).run(std::slice::from_ref(cell));
        serial_cells.push(secs(t.elapsed()));
        reference.push(outcome_key(&r.cells[0]));
    }
    for (_, keys) in &outcomes {
        let differing = keys.iter().zip(&reference).filter(|(a, b)| a != b).count() as u64;
        report.attempted += cells.len() as u64;
        report.failed += differing;
        if differing > 0 {
            report.check_failed(format!(
                "{differing} of {} cells differ from the 1-thread reference",
                cells.len()
            ));
        }
    }
    let trials_per_pass = outcomes[0].0;
    let pooled = median(&walls);
    report.trials = trials_per_pass * walls.len() as u64;
    report.trials_per_s = Some(trials_per_pass as f64 / pooled);
    report.ops_per_cpu_s = trials_per_pass as f64 / median(&cpus);
    report.notes.push(format!(
        "{which:?} sweep: {} cells, {trials_per_pass} trials/pass, {} passes, median pass {:.4} s wall, \
         {:.4} s CPU, 1-thread reference {:.4} s; pass walls {:?}",
        cells.len(),
        walls.len(),
        pooled,
        median(&cpus),
        serial_cells.iter().sum::<f64>(),
        walls.iter().map(|w| (w * 1e3).round() / 1e3).collect::<Vec<_>>()
    ));

    if traced {
        let w = runner.threads() as f64;
        let serial: f64 = serial_cells.iter().sum();
        let slowest = serial_cells.iter().copied().fold(0.0, f64::max);
        report.layer("sim.runner.efficiency", serial / (w * pooled), "ratio");
        report.layer("sim.runner.straggler_frac", slowest / pooled, "ratio");
        report.layer(
            "sim.runner.overhead_ns_per_trial",
            (w * pooled - serial) * 1e9 / trials_per_pass as f64,
            "ns",
        );
        report.layer("sim.runner.steals", runner.steals() as f64, "count");
        replay_layers(which, &cells, 0, &mut report);
        if which == Sweep::Fortress {
            repair_layers(seed, &mut report);
        }
    }
    report
}

/// Trace id of the first replayed repair-sweep trial on the fortress
/// workload, above any fortress trial's.
const REPAIR_TRACE_IDS: u64 = 1 << 32;

/// The SMR view-change and state-transfer layers, which the fortress
/// sweep does not exercise, from a traced replay of sampled repair-sweep
/// trials. The repair sweep is not a declared workload: its pass time
/// follows the host's load too closely to gate (see `README.md`), so its
/// layers are traced here.
fn repair_layers(seed: u64, report: &mut Report) {
    let mut repair = Report {
        correct: true,
        ..Report::default()
    };
    let cells = Sweep::Repair.cells(seed);
    replay_layers(Sweep::Repair, &cells, REPAIR_TRACE_IDS, &mut repair);
    for name in [
        "replication.smr.view_changes",
        "replication.state_transfer.units",
        "replication.state_transfer.peak_queue",
    ] {
        let (value, unit) = repair.layers[&name];
        report.layer(name, value, unit);
    }
    report.layer(
        "repair.trial.step_us",
        repair.layers[&"trial.step_us"].0,
        "us",
    );
    report.attempted += repair.attempted;
    report.failed += repair.failed;
    report.correct &= repair.correct;
    report
        .notes
        .extend(repair.notes.into_iter().map(|n| format!("repair sweep: {n}")));
    report.spans.extend(repair.spans);
}

/// The traced replay of sampled sweep trials and the per-layer metrics
/// it yields. Trial `k` of the sample is traced under id `first_id + k`.
fn replay_layers(which: Sweep, cells: &[SweepCell], first_id: u64, report: &mut Report) {
    let sample: Vec<(usize, u64)> = cells
        .iter()
        .enumerate()
        .filter(|(_, c)| replayable(&c.spec).is_some())
        .flat_map(|(i, c)| (0..which.replayed_per_cell()).map(move |k| (i, trial_seed(c.seed, k))))
        .collect();

    // Untraced: the sweep's own trial, the replay with the recorder off,
    // and stack assembly (fresh and rewound).
    let mut untraced_ns = 0u128;
    let mut build_ns = 0u128;
    let mut reset_ns = 0u128;
    let mut shells: HashMap<usize, Stack<SimNet>> = HashMap::new();
    let mut expected = Vec::with_capacity(sample.len());
    for &(i, seed) in &sample {
        let spec = cells[i].spec;
        expected.push(format!("{:?}", spec.run_measured(seed)));
        let t = Instant::now();
        black_box(replay(&spec, seed));
        untraced_ns += t.elapsed().as_nanos();
        let (exp, _) = replayable(&spec).expect("sampled cells replay");
        let cfg = stack_config(&exp, seed);
        let t = Instant::now();
        let fresh = Stack::new(cfg).expect("cells assemble");
        build_ns += t.elapsed().as_nanos();
        let shell = shells.entry(i).or_insert(fresh);
        let t = Instant::now();
        shell.reset(seed);
        reset_ns += t.elapsed().as_nanos();
    }

    trace::enable();
    let t = Instant::now();
    let replayed: Vec<_> = sample
        .iter()
        .enumerate()
        .map(|(k, &(i, seed))| {
            trace::set_id(first_id + k as u64);
            span("trial", || {
                replay(&cells[i].spec, seed).expect("sampled cells replay")
            })
        })
        .collect();
    let traced_ns = t.elapsed().as_nanos();
    let spans = trace::take();

    let mismatched = replayed
        .iter()
        .zip(&expected)
        .filter(|(r, e)| format!("{:?}", r.measure) != **e)
        .count();
    report.attempted += sample.len() as u64;
    report.failed += mismatched as u64;
    if mismatched > 0 {
        report.check_failed(format!(
            "{mismatched} of {} replayed trials differ from the sweep's own TrialMeasure",
            sample.len()
        ));
    }

    let n = sample.len().max(1) as f64;
    let steps: u64 = replayed.iter().map(|r| r.steps).sum();
    let per_step = |ns: u64| ns as f64 / 1e3 / steps.max(1) as f64;
    let totals = trace::self_times(&spans);
    let get = |name: &str| totals.get(name).copied().unwrap_or_default();
    let net_self: u64 = totals
        .iter()
        .filter(|(name, _)| name.starts_with("net."))
        .map(|(_, t)| t.self_ns)
        .sum();
    let (msgs, bytes, drains, empty) = replayed.iter().fold((0, 0, 0, 0), |acc, r| {
        (
            acc.0 + r.net.msgs,
            acc.1 + r.net.bytes,
            acc.2 + r.net.drains,
            acc.3 + r.net.empty_drains,
        )
    });
    let repairs: Vec<_> = replayed
        .iter()
        .filter_map(|r| r.measure.avail.and_then(|a| a.repair))
        .collect();
    let trial = get("trial");
    let build = get("core.system.build");

    report.layer("core.system.build_us", build_ns as f64 / 1e3 / n, "us");
    report.layer("core.system.reset_us", reset_ns as f64 / 1e3 / n, "us");
    report.layer(
        "assembly.share",
        build_ns as f64 / untraced_ns.max(1) as f64,
        "ratio",
    );
    report.layer("trial.steps", steps as f64 / n, "count");
    report.layer(
        "trial.step_us",
        per_step(trial.total_ns - build.total_ns),
        "us",
    );
    report.layer(
        "attack.step_self_us",
        per_step(get("attack.step").self_ns),
        "us",
    );
    report.layer(
        "core.system.end_step_self_us",
        per_step(get("core.system.end_step").self_ns),
        "us",
    );
    report.layer(
        "sim.outage.before_step_us",
        per_step(get("sim.outage.before_step").total_ns + get("sim.repair.before_step").total_ns),
        "us",
    );
    report.layer("net.self_us_per_step", per_step(net_self), "us");
    report.layer(
        "net.msgs_per_step",
        msgs as f64 / steps.max(1) as f64,
        "count",
    );
    report.layer(
        "net.bytes_per_step",
        bytes as f64 / steps.max(1) as f64,
        "bytes",
    );
    report.layer(
        "net.empty_drain_frac",
        empty as f64 / drains.max(1) as f64,
        "ratio",
    );
    report.layer(
        "replication.smr.view_changes",
        repairs
            .iter()
            .map(|r| r.view_changes)
            .fold(0.0, |a, b| a + b),
        "count",
    );
    report.layer(
        "replication.state_transfer.units",
        repairs
            .iter()
            .map(|r| r.transfer_units)
            .fold(0.0, |a, b| a + b),
        "count",
    );
    report.layer(
        "replication.state_transfer.peak_queue",
        repairs
            .iter()
            .map(|r| r.storm_queue_depth)
            .fold(0.0, f64::max),
        "count",
    );
    report.layer(
        "trial.coverage",
        1.0 - trial.self_ns as f64 / trial.total_ns.max(1) as f64,
        "ratio",
    );
    report.layer(
        "trace.overhead_frac",
        traced_ns as f64 / untraced_ns.max(1) as f64 - 1.0,
        "ratio",
    );
    report.notes.push(format!(
        "traced replay: {} trials ({} per cell), {steps} steps, {mismatched} mismatches against run_measured",
        sample.len(),
        which.replayed_per_cell()
    ));
    report.spans = spans;
}
