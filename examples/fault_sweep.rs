//! Network-fault-axis quickstart: degrade the links under a deployment
//! while it is under attack, sweep loss rate × client retry budget, and
//! read the degradation metrics — goodput fraction, retries per
//! request, duplicates suppressed, gave-up requests — off one
//! declarative sweep.
//!
//! # The fault axis in three moves
//!
//! 1. **Declare the fault plan.** A [`FaultPlan`] is the network half
//!    of the coordinate: per-link loss probability, a delay/jitter
//!    window in steps (which is also the reordering window),
//!    duplication, and scheduled partitions. It is applied by wrapping
//!    the trial's transport in a `FaultyTransport` decorator, driven by
//!    its own SplitMix64 stream split off the trial seed — so the fault
//!    draws never perturb the attack or outage streams.
//! 2. **Pair it with a retry policy.** A [`FaultSpec::Degraded`] cell
//!    couples the plan with the [`RetryPolicy`] a measurement client
//!    answers it with: per-request timeout, bounded retries, and
//!    deterministic jittered exponential backoff. `SweepSpec::faults`
//!    crosses the coordinates with every other axis; cells label
//!    themselves (`… fault=loss:0.1+retry:3x8`) and seed themselves
//!    from their content, so adding the axis changes no existing cell.
//! 3. **Read the metrics.** Each degraded cell's report row carries
//!    `goodput` (fraction of probe requests answered within policy),
//!    `retries_per_req`, `dup_suppressed` (duplicate replies the client
//!    rejected by nonce), and `gave_up` (requests abandoned after the
//!    retry budget) — alongside the usual lifetime and availability
//!    columns.
//!
//! ```text
//! cargo run --example fault_sweep
//! ```

use fortress::core::client::RetryPolicy;
use fortress::core::system::SystemClass;
use fortress::net::fault::FaultPlan;
use fortress::sim::faults::FaultSpec;
use fortress::sim::runner::{Runner, TrialBudget};
use fortress::sim::scenario::{fault_base, SweepScheduler, SweepSpec};
use fortress::sim::stats::MetricId;

fn main() {
    // Loss rate × retry budget on the fortified S2 (shared fault
    // template: wide key space, slow attacker — the goodput signal
    // comes from trials that live deep into the mission window). The
    // retry-free column is the control: whatever goodput it loses to
    // the link is what the retry budget is buying back.
    let mut faults = vec![FaultSpec::None];
    for loss in [0.05, 0.20] {
        for retry in [RetryPolicy::no_retry(8), RetryPolicy::retrying(8, 3, 2)] {
            faults.push(FaultSpec::Degraded {
                plan: FaultPlan::lossy(loss),
                retry,
            });
        }
    }
    let fortified = SweepSpec::new(fault_base(SystemClass::S2Fortress)).faults(faults.clone());

    // The bare-PB baseline under the same fault coordinates: no proxy
    // tier, so a lost link is a lost request unless the client retries
    // — the multipath hedge the fortified stack gets for free.
    let bare = SweepSpec::new(fault_base(SystemClass::S1Pb)).faults(faults);

    let mut cells = fortified.compile(7);
    cells.extend(bare.compile(7));

    let report = SweepScheduler::new(&Runner::new(), TrialBudget::Fixed(32)).run(&cells);
    println!("{}", report.to_table().to_aligned());

    let goodput = report
        .cell_mean(MetricId::Goodput)
        .expect("degraded cells measure goodput");
    let retries = report
        .cell_mean(MetricId::Retries)
        .expect("degraded cells count retries");
    println!(
        "mean goodput fraction across degraded cells: {goodput:.3} \
         (higher is better; compare retry:0 rows against retry:3 rows), \
         at {retries:.3} retries per request"
    );
}
