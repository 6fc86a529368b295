//! The availability axis, asserted end-to-end:
//!
//! 1. **Golden pin** — the outage-bearing availability sweep (3 outage
//!    schedules × paced/outage-strike on fortified S2, plus the bare-PB
//!    S1 slice) reproduces a committed golden CSV bit-for-bit through
//!    the cell-parallel scheduler, at 1 and 8 runner threads.
//!    Regenerate with
//!    `UPDATE_GOLDEN=1 cargo test -p fortress-sim --test availability`.
//! 2. **Directionality** — availability degrades monotonically with the
//!    outage rate at fixed adversary strength, and the fortified
//!    stack's downtime fraction does not exceed bare PB's on paired
//!    seeds and schedules (the paper's headline claim, availability
//!    edition).
//! 3. **Mechanism** — outage cells actually exercise the PB failover
//!    machinery: failovers complete, latencies are bounded by the
//!    failover timeout's order, and requests are lost only in outage
//!    windows.

mod common;

use fortress_core::system::{pb_failover_timeout, SystemClass};
use fortress_sim::outage::OutageSpec;
use fortress_sim::runner::{Runner, TrialBudget};
use fortress_sim::scenario::{availability_base, availability_sweep, SweepScheduler, SweepSpec};
use fortress_sim::stats::MetricId;

/// Seed of the pinned availability sweep.
const GOLDEN_SEED: u64 = 0x000A_7A11;

/// Contract 1: the outage-bearing sweep is bit-identical serial vs
/// cell-parallel and pinned by a committed golden file.
#[test]
fn availability_sweep_matches_golden_file_at_any_thread_count() {
    let cells = availability_sweep(GOLDEN_SEED);
    assert!(
        cells.iter().any(|c| c.label.contains("out=periodic"))
            && cells.iter().any(|c| c.label.contains("out=poisson")),
        "the sweep must carry at least two outage schedules: {:?}",
        cells.iter().map(|c| c.label.clone()).collect::<Vec<_>>()
    );
    let budget = TrialBudget::Fixed(16);
    let serial = SweepScheduler::new(&Runner::with_threads(1), budget).run(&cells);
    let pooled = SweepScheduler::new(&Runner::with_threads(8), budget).run(&cells);
    assert_eq!(
        serial.to_json(),
        pooled.to_json(),
        "availability sweep diverged between 1 and 8 threads"
    );
    let csv = serial.to_table().to_csv();
    common::assert_golden("availability_small.csv", &csv);
    common::assert_golden("availability_small.json", &format!("{}\n", serial.to_json()));
}

/// A small fortified cell list over a swept outage axis, shared by the
/// directional tests.
fn s2_cells_with_outages(outages: Vec<OutageSpec>, base_seed: u64) -> Vec<fortress_sim::SweepCell> {
    // The one shared template (wide key space, slow attacker) so trials
    // survive several outage periods and these tests stay on the same
    // configuration the golden sweep and the example pin.
    SweepSpec::new(availability_base(SystemClass::S2Fortress))
        .outages(outages)
        .compile(base_seed)
}

/// Contract 2a: at fixed adversary strength, more injected outage means
/// more downtime — monotone along the rate axis (small tolerance for
/// Monte-Carlo noise; the axis spans a 10× rate spread so the signal
/// dwarfs it).
#[test]
fn downtime_grows_monotonically_with_outage_rate() {
    let rates = [0.0, 0.02, 0.2];
    let cells = s2_cells_with_outages(
        rates
            .iter()
            .map(|&rate| OutageSpec::Random {
                rate,
                downtime: 25,
            })
            .collect(),
        0xD0_71,
    );
    let report = SweepScheduler::new(&Runner::new(), TrialBudget::Fixed(48)).run(&cells);
    let downtimes: Vec<f64> = report
        .cells
        .iter()
        .map(|o| {
            assert!(o.avail[MetricId::Downtime].n() > 0, "protocol cells must measure");
            o.avail[MetricId::Downtime].mean()
        })
        .collect();
    for pair in downtimes.windows(2) {
        assert!(
            pair[1] >= pair[0] * 0.98,
            "downtime dropped as the outage rate grew: {downtimes:?}"
        );
    }
    assert!(
        downtimes[2] > downtimes[0] + 0.05,
        "a 0.2/step outage rate must cost real availability: {downtimes:?}"
    );
}

/// Contract 2b: under the same outage schedule, adversary strength and
/// paired base seed, the fortified stack's downtime fraction does not
/// exceed the bare PB system's — the paper's resilience headline read
/// on the availability axis (bare PB falls to the direct attacker long
/// before the mission window closes, and a fallen system delivers no
/// service at all).
#[test]
fn fortified_downtime_never_exceeds_bare_pb_on_paired_schedules() {
    let outage = OutageSpec::Periodic {
        period: 40,
        downtime: 25,
    };
    let base_seed = 0x9A12;
    let s2 = s2_cells_with_outages(vec![outage], base_seed);
    let s1 = SweepSpec::new(availability_base(SystemClass::S1Pb))
        .outages(vec![outage])
        .compile(base_seed);
    let runner = Runner::new();
    let budget = TrialBudget::Fixed(48);
    let s2_report = SweepScheduler::new(&runner, budget).run(&s2);
    let s1_report = SweepScheduler::new(&runner, budget).run(&s1);
    let s2_down = s2_report.cells[0].avail[MetricId::Downtime].mean();
    let s1_down = s1_report.cells[0].avail[MetricId::Downtime].mean();
    assert!(
        s2_down <= s1_down + 0.02,
        "fortified downtime ({s2_down:.4}) must not exceed bare PB's \
         ({s1_down:.4}) under the paired schedule"
    );
    assert!(
        s1_down > 0.5,
        "bare PB under direct attack must lose most of the window: {s1_down:.4}"
    );
}

/// Contract 3: outage cells exercise the real failover machinery — the
/// counters the campaign reports surface are mechanically plausible.
#[test]
fn outage_cells_complete_failovers_with_bounded_latency() {
    let cells = s2_cells_with_outages(
        vec![OutageSpec::Periodic {
            period: 40,
            downtime: 25,
        }],
        0xFA_17,
    );
    let report = SweepScheduler::new(&Runner::new(), TrialBudget::Fixed(48)).run(&cells);
    let outcome = &report.cells[0];
    assert!(
        outcome.avail[MetricId::Failovers].mean() > 0.0,
        "periodic primary outages must provoke failovers"
    );
    assert!(
        outcome.avail[MetricId::FailoverLatency].n() > 0,
        "some trials must complete a failover window"
    );
    let latency = outcome.avail[MetricId::FailoverLatency].mean();
    let timeout = pb_failover_timeout() as f64;
    assert!(
        latency > 0.0 && latency <= 3.0 * timeout,
        "mean failover latency {latency:.1} should be on the order of the \
         failover timeout ({timeout})"
    );
    assert!(
        outcome.avail[MetricId::Lost].mean() > 0.0,
        "requests sent into a downed machine must be counted as lost"
    );
    // The no-outage twin loses nothing and fails over never.
    let quiet = s2_cells_with_outages(vec![OutageSpec::None], 0xFA_17);
    let quiet_report =
        SweepScheduler::new(&Runner::new(), TrialBudget::Fixed(24)).run(&quiet);
    assert_eq!(quiet_report.cells[0].avail[MetricId::Failovers].mean(), 0.0);
    assert_eq!(quiet_report.cells[0].avail[MetricId::Lost].mean(), 0.0);
}
