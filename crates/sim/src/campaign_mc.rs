//! Protocol-level adversary campaign grids.
//!
//! A [`CampaignGrid`] sweeps the cartesian product of three defense/attack
//! axes through the real protocol stacks:
//!
//! * **suspicion policy** — the proxies' `{window, threshold}` knob, which
//!   sets the κ a rate-disciplined attacker is squeezed to;
//! * **proxy fleet size** — `np`, the width of the indirection tier;
//! * **adversary strategy** — a [`StrategyKind`] from `fortress-attack`:
//!   the paper's paced baseline plus scan-then-strike, burst and
//!   adaptive-backoff postures.
//!
//! Each cell runs full [`ProtocolExperiment`]-style trials (real stacks,
//! real attackers, deterministic network) on the persistent-pool
//! [`Runner`], with either a fixed or an RSE-adaptive [`TrialBudget`] —
//! adaptive budgets spend trials where the lifetime variance demands
//! them, which is what makes dozens-of-cells grids wall-clock-feasible.
//!
//! # Seeding contract
//!
//! Cell seeds are **content-derived**: [`CampaignCell::cell_seed`] mixes
//! the run's base seed with the cell's *parameters* (window, threshold,
//! `np`, [`StrategyKind::id`]) through SplitMix64 — never with the cell's
//! position in the grid. Trial `i` of a cell is then seeded
//! [`trial_seed`]`(cell_seed, i)` exactly as every other runner consumer.
//! Consequences, asserted by `tests/campaign.rs`:
//!
//! * the same grid gives bit-identical per-cell results at any thread
//!   count (the runner's contract), and
//! * reordering or subsetting the grid's axes cannot change any cell's
//!   trials (the content-derived seed), so reports are comparable across
//!   grid layouts and incremental re-runs.

use fortress_attack::campaign::StrategyKind;
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::SystemClass;
use fortress_model::params::Policy;

use crate::protocol_mc::ProtocolExperiment;
use crate::report::{avail_json, fmt_avail, fmt_num, CsvTable};
use crate::runner::{fold, trial_seed, Runner, TrialBudget};
use crate::scenario::{Scenario, ScenarioSpec, SweepCell, SweepScheduler, TrialMeasure};
use crate::stats::{AvailStats, Estimate, Metric, MetricGroup, METRICS};

/// One coordinate of the campaign grid.
#[derive(Clone, Copy, PartialEq, Debug)]
pub struct CampaignCell {
    /// The proxies' suspicion policy.
    pub suspicion: SuspicionPolicy,
    /// Proxy fleet size.
    pub np: usize,
    /// Adversary posture.
    pub strategy: StrategyKind,
}

impl CampaignCell {
    /// The cell's base seed under `base_seed` — a pure function of the
    /// cell *content* (see the module docs for why that matters).
    pub fn cell_seed(&self, base_seed: u64) -> u64 {
        let mut seed = fold(base_seed, 0x00CA_4A16);
        seed = fold(seed, self.suspicion.window);
        seed = fold(seed, u64::from(self.suspicion.threshold));
        seed = fold(seed, self.np as u64);
        fold(seed, self.strategy.id())
    }
}

/// A campaign sweep definition: the three axes plus the experiment
/// template every cell shares (class, policy, entropy, ω, step cap).
#[derive(Clone, Debug)]
pub struct CampaignGrid {
    /// Suspicion-policy axis.
    pub suspicions: Vec<SuspicionPolicy>,
    /// Fleet-size axis.
    pub fleet_sizes: Vec<usize>,
    /// Strategy axis.
    pub strategies: Vec<StrategyKind>,
    /// Per-cell experiment template; `suspicion` and `np` are overridden
    /// by the cell coordinate, everything else applies grid-wide.
    pub base: ProtocolExperiment,
}

impl CampaignGrid {
    /// The default grid the `campaign` binary sweeps (as the SO block of
    /// `scenario::paper_default_sweep`): 3 suspicion policies × 3 fleet
    /// sizes × all 5 strategies over an SO FORTRESS at scaled entropy —
    /// 45 cells whose shape (not absolute scale) is the claim.
    pub fn paper_default() -> CampaignGrid {
        CampaignGrid {
            // Safe rates 1/64, 4/32 and 8/16 per step: at ω = 8 the
            // induced κ spans 0.002–0.0625, a 32× spread along the axis.
            suspicions: SuspicionPolicy::paper_grid().to_vec(),
            fleet_sizes: vec![1, 3, 5],
            strategies: StrategyKind::ALL.to_vec(),
            base: ProtocolExperiment {
                entropy_bits: 8,
                omega: 8.0,
                max_steps: 4_000,
                ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
            },
        }
    }

    /// All cells in axis-major order (suspicion, then fleet, then
    /// strategy). The order is presentation only — per-cell results are
    /// order-independent by the seeding contract.
    pub fn cells(&self) -> Vec<CampaignCell> {
        let mut cells = Vec::with_capacity(
            self.suspicions.len() * self.fleet_sizes.len() * self.strategies.len(),
        );
        for &suspicion in &self.suspicions {
            for &np in &self.fleet_sizes {
                for &strategy in &self.strategies {
                    cells.push(CampaignCell {
                        suspicion,
                        np,
                        strategy,
                    });
                }
            }
        }
        cells
    }

    /// The experiment a cell runs: the grid template with the cell's
    /// suspicion policy and fleet size patched in.
    pub fn experiment(&self, cell: &CampaignCell) -> ProtocolExperiment {
        ProtocolExperiment {
            suspicion: cell.suspicion,
            np: cell.np,
            ..self.base
        }
    }

    /// Trials per work unit for campaign cells — the scenario layer's
    /// [`crate::scenario::CELL_CHUNK`], re-exported here because the
    /// chunk size is part of the merge tree and hence of the
    /// golden-pinned bits.
    pub const CELL_CHUNK: u64 = crate::scenario::CELL_CHUNK;

    /// Runs one cell on `runner` (re-chunked to [`CampaignGrid::CELL_CHUNK`],
    /// sharing `runner`'s worker pool) and returns its outcome. This is
    /// the cell-at-a-time reference path: the grid-level [`CampaignGrid::run`]
    /// must (and does, asserted by `tests/scheduler.rs`) reproduce its
    /// bits exactly while scheduling cells in parallel.
    pub fn run_cell(
        &self,
        cell: CampaignCell,
        runner: &Runner,
        budget: TrialBudget,
        base_seed: u64,
    ) -> CellOutcome {
        let exp = self.experiment(&cell);
        let strategy = cell.strategy;
        let cell_seed = cell.cell_seed(base_seed);
        let runner = runner.clone().with_chunk(CampaignGrid::CELL_CHUNK);
        let stats = runner
            .try_run_samples(
                cell_seed,
                budget,
                std::sync::Arc::new(move |trial_index, _rng| {
                    run_cell_measured(&exp, strategy, trial_seed(cell_seed, trial_index))
                        .into_sample()
                }),
            )
            .unwrap_or_else(|e| panic!("{e}"));
        // Derived fields (estimate, censoring) come from the one shared
        // definition; only the legacy κ projection differs (the grid
        // reports the suspicion-induced κ for every strategy).
        let spec = ScenarioSpec::Campaign { experiment: exp, strategy };
        let outcome = crate::scenario::SweepOutcome::measured(
            &SweepCell {
                label: spec.label(),
                spec,
                seed: cell_seed,
            },
            stats.value,
            stats.avail,
        );
        CellOutcome {
            cell,
            kappa: cell.suspicion.induced_kappa(exp.omega),
            estimate: outcome.estimate,
            censored: outcome.censored,
            avail: outcome.avail,
        }
    }

    /// The grid's cells as scenario sweep cells, **seeded by the legacy
    /// campaign contract** ([`CampaignCell::cell_seed`], which predates
    /// the wider scenario seeding and is pinned by the campaign golden
    /// file).
    pub fn sweep_cells(&self, base_seed: u64) -> Vec<SweepCell> {
        self.cells()
            .into_iter()
            .map(|cell| {
                let spec = ScenarioSpec::Campaign {
                    experiment: self.experiment(&cell),
                    strategy: cell.strategy,
                };
                SweepCell {
                    label: spec.label(),
                    spec,
                    seed: cell.cell_seed(base_seed),
                }
            })
            .collect()
    }

    /// Runs the whole grid — since the `Scenario` redesign, a thin shim
    /// over [`SweepScheduler`], so independent cells execute in parallel
    /// on `runner`'s worker pool instead of one at a time. Per-cell
    /// statistics are bit-identical to [`CampaignGrid::run_cell`] and to
    /// any `runner` thread count (including the committed golden file,
    /// which predates the scheduler); the report lists cells in
    /// [`CampaignGrid::cells`] order.
    pub fn run(&self, runner: &Runner, budget: TrialBudget, base_seed: u64) -> CampaignReport {
        let report = SweepScheduler::new(runner, budget)
            .with_chunk(CampaignGrid::CELL_CHUNK)
            .run(&self.sweep_cells(base_seed));
        CampaignReport {
            cells: self
                .cells()
                .into_iter()
                .zip(report.cells)
                .map(|(cell, outcome)| CellOutcome {
                    cell,
                    kappa: cell.suspicion.induced_kappa(self.base.omega),
                    estimate: outcome.estimate,
                    censored: outcome.censored,
                    avail: outcome.avail,
                })
                .collect(),
        }
    }
}

/// One trial of one campaign cell with availability measurements
/// attached: assemble the stack, instantiate the strategy, walk unit
/// time-steps until the compromise condition holds (the lifetime is the
/// 1-based step of the fall, or `max_steps` if censored). The adversary's
/// RNG stream is untouched by the outage driver, which draws from its
/// own stream ([`OutageSpec::None`](crate::outage::OutageSpec) draws
/// nothing), so lifetimes are bit-identical to the pre-axis runs.
pub fn run_cell_measured(
    exp: &ProtocolExperiment,
    strategy: StrategyKind,
    seed: u64,
) -> TrialMeasure {
    // Shard dispatch first: a non-vacuous shard coordinate runs the cell
    // as a fleet behind the key-hash directory (`fleet_mc`), which does
    // its own fault dispatch. `ShardSpec::None` falls through to the
    // exact pre-axis single-stack path below.
    if !exp.shard.is_none() {
        return crate::fleet_mc::run_fleet_measured(exp, strategy, seed);
    }
    crate::protocol_mc::run_single_stack(exp, Some(strategy), seed)
}

/// The measured outcome of one grid cell.
#[derive(Clone, Copy, Debug)]
pub struct CellOutcome {
    /// The coordinate.
    pub cell: CampaignCell,
    /// The κ the cell's suspicion policy induces on the grid's ω
    /// (context for reading the lifetime against the abstract model).
    pub kappa: f64,
    /// Lifetime estimate (mean steps until compromise, 95% CI).
    pub estimate: Estimate,
    /// Whether any trial reached the step cap. A trial at the cap either
    /// survived it (true censoring) or fell exactly on it — the encoding
    /// cannot distinguish the two, so read the mean as a lower bound
    /// whenever this is set.
    pub censored: bool,
    /// Availability statistics across the cell's trials (downtime
    /// fraction, failover count/latency, lost requests) — meaningful
    /// once the grid's base experiment carries an
    /// [`OutageSpec`](crate::outage::OutageSpec); without one, the
    /// downtime column reads the pure compromise tail.
    pub avail: AvailStats,
}

/// All cell outcomes of one campaign run.
#[derive(Clone, Debug)]
pub struct CampaignReport {
    /// Outcomes in grid order.
    pub cells: Vec<CellOutcome>,
}

impl CampaignReport {
    /// The outcome at a coordinate, if the grid ran it.
    pub fn find(&self, cell: &CampaignCell) -> Option<&CellOutcome> {
        self.cells.iter().find(|o| o.cell == *cell)
    }

    /// Renders the report as a CSV table (one row per cell), with one
    /// column per [`MetricGroup::Avail`] row of [`METRICS`].
    pub fn to_table(&self) -> CsvTable {
        let mut headers = vec![
            "window",
            "threshold",
            "np",
            "strategy",
            "kappa",
            "mean_lifetime",
            "ci_low",
            "ci_high",
            "trials",
            "censored",
        ];
        headers.extend(avail_metrics().map(|m| m.csv));
        let mut table = CsvTable::new(&headers);
        for o in &self.cells {
            let mut row = vec![
                o.cell.suspicion.window.to_string(),
                o.cell.suspicion.threshold.to_string(),
                o.cell.np.to_string(),
                o.cell.strategy.label().to_string(),
                fmt_num(o.kappa),
                fmt_num(o.estimate.mean),
                fmt_num(o.estimate.ci_low),
                fmt_num(o.estimate.ci_high),
                o.estimate.n.to_string(),
                o.censored.to_string(),
            ];
            row.extend(avail_metrics().map(|m| fmt_avail(&o.avail[m.id])));
            table.push_row(row);
        }
        table
    }

    /// Renders the report as a JSON array (stable field order, grid
    /// order, the [`MetricGroup::Avail`] metrics at full precision) —
    /// the determinism comparator the bench binaries diff.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, o) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"window\":{},\"threshold\":{},\"np\":{},\"strategy\":\"{}\",\
                 \"kappa\":{},\"mean\":{},\"n\":{}",
                o.cell.suspicion.window,
                o.cell.suspicion.threshold,
                o.cell.np,
                o.cell.strategy.label(),
                o.kappa,
                o.estimate.mean,
                o.estimate.n,
            ));
            for m in avail_metrics() {
                out.push_str(&format!(",\"{}\":{}", m.json, avail_json(&o.avail[m.id])));
            }
            out.push('}');
        }
        out.push(']');
        out
    }
}

/// The [`MetricGroup::Avail`] rows of [`METRICS`] — the campaign report's
/// availability columns.
fn avail_metrics() -> impl Iterator<Item = &'static Metric> {
    METRICS.iter().filter(|m| m.group == MetricGroup::Avail)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_grid() -> CampaignGrid {
        CampaignGrid {
            suspicions: vec![
                SuspicionPolicy { window: 8, threshold: 3 },
                SuspicionPolicy { window: 16, threshold: 2 },
            ],
            fleet_sizes: vec![1, 3],
            strategies: vec![StrategyKind::PacedBelowThreshold, StrategyKind::ScanThenStrike],
            base: ProtocolExperiment {
                entropy_bits: 5,
                omega: 8.0,
                max_steps: 300,
                ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
            },
        }
    }

    #[test]
    fn grid_enumerates_the_cartesian_product() {
        let grid = tiny_grid();
        let cells = grid.cells();
        assert_eq!(cells.len(), 2 * 2 * 2);
        let mut seen = std::collections::HashSet::new();
        for c in &cells {
            assert!(seen.insert((
                c.suspicion.window,
                c.suspicion.threshold,
                c.np,
                c.strategy.id()
            )));
        }
    }

    #[test]
    fn experiment_patches_cell_knobs_into_the_stack() {
        let grid = tiny_grid();
        for cell in grid.cells() {
            let exp = grid.experiment(&cell);
            let stack = exp.build_stack(1);
            let cfg = stack.config();
            assert_eq!(cfg.np, cell.np);
            assert_eq!(cfg.suspicion, cell.suspicion);
            assert_eq!(stack.proxy_count(), cell.np);
        }
    }

    #[test]
    fn cell_seeds_are_content_derived_and_distinct() {
        let grid = tiny_grid();
        let mut seen = std::collections::HashSet::new();
        for cell in grid.cells() {
            let seed = cell.cell_seed(42);
            assert!(seen.insert(seed), "seed collision at {cell:?}");
            assert_eq!(seed, cell.cell_seed(42), "seed must be pure");
            assert_ne!(seed, cell.cell_seed(43), "base seed must matter");
        }
    }

    #[test]
    fn report_round_trips_cells() {
        let grid = tiny_grid();
        let report = grid.run(&Runner::with_threads(2), TrialBudget::Fixed(4), 7);
        assert_eq!(report.cells.len(), 8);
        for cell in grid.cells() {
            let outcome = report.find(&cell).expect("every cell reported");
            assert!(outcome.estimate.mean >= 1.0);
            assert_eq!(outcome.estimate.n, 4);
        }
        let table = report.to_table();
        assert_eq!(table.len(), 8);
        assert!(report.to_json().contains("\"strategy\":\"paced\""));
    }

    #[test]
    fn adaptive_budget_spends_more_on_noisier_cells() {
        let grid = tiny_grid();
        let budget = TrialBudget::TargetRse {
            target: 0.08,
            min_trials: 8,
            max_trials: 64,
            batch: 8,
        };
        let report = grid.run(&Runner::with_threads(2), budget, 11);
        let ns: Vec<u64> = report.cells.iter().map(|o| o.estimate.n).collect();
        assert!(ns.iter().all(|n| (8..=64).contains(n)), "{ns:?}");
        assert!(
            ns.iter().any(|n| *n > 8),
            "some cell must need more than the minimum: {ns:?}"
        );
    }
}
