//! Availability-axis quickstart: inject machine outages into a fortified
//! deployment while it is under attack, and read the survivability
//! metrics — downtime fraction, failover count and latency, requests
//! lost — off one declarative sweep.
//!
//! # The availability axis in three moves
//!
//! 1. **Declare the outage schedule.** An [`OutageSpec`] is a `Copy`
//!    sweep coordinate, exactly like a suspicion policy or an adversary
//!    strategy:
//!    * `Periodic { period, downtime }` — maintenance-style rolling
//!      outages, round-robin over the PB servers;
//!    * `Random { rate, downtime }` — memoryless machine crashes,
//!      Poisson-seeded from the cell seed (bit-identical at any thread
//!      count, like everything else on the sweep surface);
//!    * `StrikeThenCrash { downtime }` — the worst case: the serving
//!      primary's machine goes down the moment the adversary first
//!      holds a compromised proxy.
//! 2. **Put it on a sweep axis.** `SweepSpec::outages(vec![...])`
//!    crosses the schedules with every other axis; cells label
//!    themselves (`… out=periodic:40/25`) and seed themselves from
//!    their content, so adding the axis changes no existing cell.
//! 3. **Read the metrics.** Every protocol cell's report row now
//!    carries `downtime` (fraction of the mission window with no
//!    correct service — outage windows before failover completes, plus
//!    everything after a compromise), `failovers`, `failover_latency`
//!    (steps from losing the primary to a backup serving), and
//!    `lost_requests` (deliveries dead-lettered into downed machines).
//!
//! ```text
//! cargo run --example availability_sweep
//! ```

use fortress::attack::campaign::StrategyKind;
use fortress::core::system::SystemClass;
use fortress::sim::outage::OutageSpec;
use fortress::sim::runner::{Runner, TrialBudget};
use fortress::sim::scenario::{availability_base, SweepScheduler, SweepSpec};
use fortress::sim::stats::MetricId;

fn main() {
    // Fortified S2 under two adversaries × three outage schedules, on
    // the shared availability template (`availability_base`: wide key
    // space, slow attacker — trials must survive several outage periods,
    // because availability is about what happens while the system is
    // still standing). The `OutageStrike` adversary times its indirect
    // probes against the injected outage windows — attack pressure
    // correlated with availability faults, the survivability
    // literature's worst case.
    let fortified = SweepSpec::new(availability_base(SystemClass::S2Fortress))
        .strategies(vec![
            StrategyKind::PacedBelowThreshold,
            StrategyKind::OutageStrike,
        ])
        .outages(vec![
            OutageSpec::None,
            OutageSpec::Periodic {
                period: 40,
                downtime: 25,
            },
            OutageSpec::StrikeThenCrash { downtime: 25 },
        ]);

    // The bare-PB baseline under the same schedules (no proxy tier, so
    // the strategy axis collapses): the paper's comparison, availability
    // edition.
    let bare = SweepSpec::new(availability_base(SystemClass::S1Pb)).outages(vec![
        OutageSpec::None,
        OutageSpec::Periodic {
            period: 40,
            downtime: 25,
        },
    ]);

    let mut cells = fortified.compile(7);
    cells.extend(bare.compile(7));

    let report = SweepScheduler::new(&Runner::new(), TrialBudget::Fixed(32)).run(&cells);
    println!("{}", report.to_table().to_aligned());

    let mean_downtime = report
        .cell_mean(MetricId::Downtime)
        .expect("protocol cells measure downtime");
    println!(
        "mean downtime fraction across the sweep: {mean_downtime:.3} \
         (lower is better — compare the S2 rows against the S1 rows)"
    );
}
