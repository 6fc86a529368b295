//! The campaign grid's contracts, asserted end-to-end:
//!
//! 1. **Golden pin** — one small grid's per-cell means are bit-exact
//!    against a committed golden CSV (counter-based seeding makes the
//!    whole grid a pure function of its parameters), and identical at 1
//!    vs 4 runner threads. Regenerate with
//!    `UPDATE_GOLDEN=1 cargo test -p fortress-sim --test campaign`.
//! 2. **Ordering invariance** — reordering or subsetting the grid's
//!    strategy axis changes no cell's result (cell seeds derive from
//!    cell content, not grid position).
//! 3. **Fleet direction** — under the scan-then-strike adversary, wider
//!    proxy fleets never reduce the mean lifetime: one proxy *is* the
//!    all-proxies compromise condition, while any second proxy forces
//!    the attacker through the launch-pad strike phase.

mod common;

use common::{small_grid, GOLDEN_SEED};
use fortress_attack::campaign::StrategyKind;
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::SystemClass;
use fortress_model::params::Policy;
use fortress_sim::campaign_mc::CampaignGrid;
use fortress_sim::protocol_mc::ProtocolExperiment;
use fortress_sim::runner::{Runner, TrialBudget};

/// Contract 1: the committed golden file reproduces bit-for-bit, at more
/// than one thread count.
#[test]
fn small_grid_matches_golden_file() {
    let grid = small_grid();
    let budget = TrialBudget::Fixed(16);
    let serial = grid.run(&Runner::with_threads(1), budget, GOLDEN_SEED);
    let pooled = grid.run(&Runner::with_threads(4), budget, GOLDEN_SEED);
    let csv = serial.to_table().to_csv();
    assert_eq!(
        pooled.to_table().to_csv(),
        csv,
        "campaign grid diverged across thread counts"
    );
    common::assert_golden("campaign_small.csv", &csv);
}

/// Contract 2: per-cell results are independent of the grid layout.
#[test]
fn strategy_ordering_does_not_change_cell_results() {
    let forward = small_grid();
    let mut reversed = small_grid();
    reversed.strategies.reverse();
    reversed.fleet_sizes.reverse();
    reversed.suspicions.reverse();
    let budget = TrialBudget::Fixed(12);
    let runner = Runner::with_threads(2);
    let a = forward.run(&runner, budget, 5);
    let b = reversed.run(&runner, budget, 5);
    assert_eq!(a.cells.len(), b.cells.len());
    for outcome in &a.cells {
        let mirrored = b
            .find(&outcome.cell)
            .expect("reversed grid covers the same cells");
        assert_eq!(
            outcome.estimate, mirrored.estimate,
            "cell {:?} changed when the grid was reordered",
            outcome.cell
        );
    }

    // Subsetting must not change results either: a single-strategy grid
    // reproduces the full grid's cells for that strategy.
    let mut subset = small_grid();
    subset.strategies = vec![StrategyKind::ScanThenStrike];
    let c = subset.run(&runner, budget, 5);
    for outcome in &c.cells {
        let full = a.find(&outcome.cell).expect("full grid has the cell");
        assert_eq!(outcome.estimate, full.estimate);
    }
}

/// Contract 3: under scan-then-strike, growing the proxy fleet never
/// reduces the mean lifetime. The jump from 1 proxy (where capturing the
/// pad *is* the all-proxies condition) to 2+ is strict; beyond that the
/// lifetime is flat in theory, so adjacent cells are allowed Monte-Carlo
/// noise but no real regression.
#[test]
fn wider_fleets_never_reduce_lifetime_under_scan_then_strike() {
    let grid = CampaignGrid {
        suspicions: vec![SuspicionPolicy { window: 16, threshold: 3 }],
        fleet_sizes: vec![1, 2, 4, 6],
        strategies: vec![StrategyKind::ScanThenStrike],
        base: ProtocolExperiment {
            entropy_bits: 7,
            omega: 8.0,
            max_steps: 2_000,
            ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
        },
    };
    let budget = TrialBudget::TargetRse {
        target: 0.02,
        min_trials: 256,
        max_trials: 4_096,
        batch: 256,
    };
    let report = grid.run(&Runner::new(), budget, 0xF1EE7);
    let means: Vec<f64> = report.cells.iter().map(|o| o.estimate.mean).collect();
    for pair in means.windows(2) {
        assert!(
            pair[1] >= pair[0] * 0.95,
            "mean lifetime dropped with a wider fleet: {means:?}"
        );
    }
    assert!(
        means[1] > means[0] * 1.5,
        "the 1→2 proxy jump must be structural, not noise: {means:?}"
    );
}

/// The suspicion axis bites: a hair-trigger policy (low threshold, long
/// window) squeezes the paced attacker's κ and must not *shorten* the
/// defender's life compared to a lax policy, everything else equal.
#[test]
fn tighter_suspicion_never_helps_the_paced_attacker() {
    let grid = CampaignGrid {
        suspicions: vec![
            SuspicionPolicy { window: 8, threshold: 7 }, // lax: κ = 0.09
            SuspicionPolicy::hair_trigger(),             // tight: κ ≈ 0.002
        ],
        fleet_sizes: vec![3],
        strategies: vec![StrategyKind::PacedBelowThreshold],
        base: ProtocolExperiment {
            entropy_bits: 7,
            omega: 8.0,
            max_steps: 2_000,
            ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
        },
    };
    let budget = TrialBudget::TargetRse {
        target: 0.03,
        min_trials: 200,
        max_trials: 2_048,
        batch: 200,
    };
    let report = grid.run(&Runner::new(), budget, 0xBEE);
    let lax = report.cells[0].estimate.mean;
    let tight = report.cells[1].estimate.mean;
    assert!(
        tight >= lax * 0.95,
        "tight suspicion ({tight}) must not underperform lax ({lax})"
    );
    assert!(report.cells[1].kappa < report.cells[0].kappa);
}
