//! Shared fixtures for the campaign/scheduler integration suites — one
//! definition of the small pinned grid, so the golden-file tests and the
//! scheduler bit-identity tests can never drift onto different cells.
//! Each suite uses a subset of the fixtures.

#![allow(dead_code)]

use fortress_attack::campaign::StrategyKind;
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::SystemClass;
use fortress_model::params::Policy;
use fortress_sim::campaign_mc::CampaignGrid;
use fortress_sim::protocol_mc::ProtocolExperiment;

/// Seed of the pinned golden grid.
pub const GOLDEN_SEED: u64 = 0x90_1D;

/// Path of the committed golden CSV.
pub const GOLDEN_PATH: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/campaign_small.csv"
);

/// The small grid pinned by the golden file: 2 suspicion policies × 2
/// fleet sizes × 2 strategies at 2⁵ keys, 400-step cap.
pub fn small_grid() -> CampaignGrid {
    CampaignGrid {
        suspicions: vec![
            SuspicionPolicy { window: 8, threshold: 3 },
            SuspicionPolicy { window: 32, threshold: 2 },
        ],
        fleet_sizes: vec![1, 3],
        strategies: vec![StrategyKind::PacedBelowThreshold, StrategyKind::ScanThenStrike],
        base: ProtocolExperiment {
            entropy_bits: 5,
            omega: 8.0,
            max_steps: 400,
            ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
        },
    }
}

/// Asserts that `actual` equals the committed golden file
/// `tests/golden/<name>` byte for byte. With `UPDATE_GOLDEN` set in the
/// environment the file is rewritten from `actual` first.
pub fn assert_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).unwrap();
    }
    let golden = std::fs::read_to_string(&path)
        .unwrap_or_else(|_| panic!("golden file {name} missing — regenerate with UPDATE_GOLDEN=1"));
    assert_eq!(
        actual, golden,
        "{name} drifted from the golden pin; if intentional, regenerate with UPDATE_GOLDEN=1"
    );
}
