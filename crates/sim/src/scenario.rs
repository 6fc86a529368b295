//! One experiment surface over every fidelity: the unified `Scenario`
//! API and its cell-parallel sweep scheduler.
//!
//! The paper's resilience claims are comparisons *across scenarios* —
//! bare PB vs fortified, SO vs PO, abstract κ predictions vs
//! protocol-level runs — and survivability methodology (Ellison et al.)
//! insists such claims be assessed as systematic sweeps over
//! usage/intrusion scenarios, not point samples. This module is that
//! sweep surface:
//!
//! * [`Scenario`] — the object-safe unit contract: a label and
//!   `run_once(seed) → lifetime`. Implemented by [`AbstractModel`]
//!   (step-by-step hazards), [`ProtocolExperiment`] (real stacks under
//!   the baseline attacker), and [`ScenarioSpec`] (which adds
//!   event-driven sampling and campaign cells with an explicit
//!   adversary strategy). Every implementor is a pure function of its
//!   seed, which is what lets one scheduler run them all
//!   deterministically.
//! * [`ScenarioSpec`] — the declarative, `Copy` coordinate of one cell,
//!   with a content-derived seed ([`ScenarioSpec::content_seed`]): two
//!   cells differing in *any* parameter draw decorrelated trial
//!   streams, and reordering or subsetting a sweep cannot change any
//!   cell's trials.
//! * [`SweepSpec`] — the axis builder: system class × service-order
//!   policy (SO/PO) × entropy χ × suspicion policy × fleet size ×
//!   adversary strategy × outage schedule (the availability axis) ×
//!   fault schedule (the network-fault axis), compiled to a flat list
//!   of seeded [`SweepCell`]s.
//! * [`SweepScheduler`] — runs cells as first-class jobs on the
//!   persistent [`Runner`] pool. Cells and trials share one pool
//!   through a two-level work queue (see below), so the embarrassingly
//!   parallel grid no longer serializes at the cell level — the
//!   restriction [`RunnerError::NestedPoolRun`](crate::runner::RunnerError)
//!   imposed on the old cell-at-a-time loop.
//! * [`CrossCheck`] — compares each protocol-level S2 cell against the
//!   abstract model's κ prediction cell-by-cell, closing the loop
//!   between the fidelities.
//!
//! # Worked example
//!
//! Sweep a small FORTRESS grid over both service-order policies and two
//! adversary strategies, in parallel, and cross-check the measured
//! lifetimes against the abstract model:
//!
//! ```
//! use fortress_attack::campaign::StrategyKind;
//! use fortress_core::probelog::SuspicionPolicy;
//! use fortress_core::system::SystemClass;
//! use fortress_model::params::Policy;
//! use fortress_sim::protocol_mc::ProtocolExperiment;
//! use fortress_sim::runner::{Runner, TrialBudget};
//! use fortress_sim::scenario::{CrossCheck, SweepScheduler, SweepSpec};
//!
//! let spec = SweepSpec::new(ProtocolExperiment {
//!     entropy_bits: 5,
//!     omega: 8.0,
//!     max_steps: 300,
//!     ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
//! })
//! .policies(Policy::ALL.to_vec())
//! .suspicions(vec![SuspicionPolicy { window: 8, threshold: 3 }])
//! .strategies(vec![
//!     StrategyKind::PacedBelowThreshold,
//!     StrategyKind::SybilPaced { identities: 3 },
//! ]);
//!
//! let cells = spec.compile(42);
//! assert_eq!(cells.len(), 4); // 2 policies × 2 strategies
//! let report = SweepScheduler::new(&Runner::with_threads(2), TrialBudget::Fixed(4)).run(&cells);
//! for outcome in &report.cells {
//!     assert!(outcome.estimate.mean >= 1.0);
//! }
//! // Identical bits at any thread count:
//! let serial = SweepScheduler::new(&Runner::with_threads(1), TrialBudget::Fixed(4)).run(&cells);
//! assert_eq!(report.to_json(), serial.to_json());
//! // Abstract-model κ predictions, cell by cell:
//! let check = CrossCheck::of(&report);
//! assert!(!check.rows.is_empty());
//! ```
//!
//! # The two-level work queue
//!
//! A cell's trial budget unrolls into *batches* (one per adaptive
//! stopping check; a single batch for fixed budgets), and each batch
//! splits into fixed-size *chunks* — the same unrolling
//! [`Runner::run`] performs. The scheduler keeps one batch per cell in
//! flight: every chunk of every in-flight batch is a first-class job on
//! the shared worker pool, results come back tagged on one channel, and
//! each cell's chunks are merged **in chunk-index order** into that
//! cell's accumulator exactly as the serial path merges them. Per-cell
//! results are therefore bit-identical to `Runner::run` at any thread
//! count — asserted against the campaign golden file by
//! `tests/scheduler.rs` — while idle workers always have another cell's
//! chunks to steal, which is where the cell-level speedup comes from.

use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;

use fortress_attack::campaign::StrategyKind;
use fortress_attack::shard::ShardPlacement;
use fortress_core::client::RetryPolicy;
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::SystemClass;
use fortress_net::fault::FaultPlan;
use fortress_markov::LaunchPad;
use fortress_model::lifetime::expected_lifetime_s2_so;
use fortress_model::params::{AttackParams, Policy, ProbeModel};
use fortress_model::{expected_lifetime, SystemKind};
use rand::rngs::SmallRng;
use rand::SeedableRng;

use crate::abstract_mc::AbstractModel;
use crate::campaign_mc::run_cell_measured;
use crate::event_mc::sample_lifetime;
use crate::faults::FaultSpec;
use crate::fleet_mc::ShardSpec;
use crate::outage::{OutageSpec, RepairSpec};
use crate::protocol_mc::ProtocolExperiment;
use crate::report::{avail_json, fmt_avail, fmt_num, CsvTable};
use crate::runner::{
    fold, trial_seed, ChunkResult, Runner, RunnerError, Sample, SampleStats, TrialBudget, TrialFn,
    POOLED_PANIC_MSG,
};
use crate::stats::{
    AvailPoint, AvailStats, Estimate, Metric, MetricGroup, MetricId, RunningStats, METRICS,
};

/// Trials per work unit for sweep cells. Protocol trials are ms-scale,
/// so small chunks keep the pool busy even at adaptive-budget batch
/// sizes. Fixed (not derived from the runner) because the chunk size is
/// part of the merge tree and hence of the golden-pinned bits.
pub const CELL_CHUNK: u64 = 8;

/// One trial's full measurement: the lifetime every scenario produces,
/// plus the availability point protocol-level trials attach (downtime
/// fraction, failovers, failover latency, lost requests — the
/// availability axis's per-trial observables).
#[derive(Clone, Copy, Debug)]
pub struct TrialMeasure {
    /// The 1-based step at which the system fell (or the step cap).
    pub lifetime: u64,
    /// Availability measurements, where the scenario produces them
    /// (protocol and campaign trials always do; abstract and
    /// event-driven trials have no machinery to measure).
    pub avail: Option<AvailPoint>,
}

impl TrialMeasure {
    /// A lifetime-only measurement (scenarios without an availability
    /// dimension).
    pub fn lifetime_only(lifetime: u64) -> TrialMeasure {
        TrialMeasure {
            lifetime,
            avail: None,
        }
    }

    /// The measurement of one finished protocol trial: `fell` is the
    /// 1-based fall step (or `cap` when censored), `compromised` says
    /// which, and the availability counters come off the stack. The
    /// downtime fraction is taken over the full mission window `cap`:
    /// observed down steps plus — when the trial ended in compromise —
    /// every remaining step of the window (a fallen system delivers no
    /// correct service), so "resisted the attack" and "stayed up"
    /// compose into one availability number, the survivability
    /// literature's resilience metric.
    pub fn of_protocol_trial<T: fortress_net::Transport>(
        cap: u64,
        fell: u64,
        compromised: bool,
        stack: &fortress_core::system::Stack<T>,
    ) -> TrialMeasure {
        let avail = stack.availability();
        let cap = cap.max(1);
        let post = if compromised { cap - fell } else { 0 };
        // Repair economics only exist on trials that armed the S0
        // accounting (a repair-axis crash or an explicit enable); legacy
        // cells carry `None` and their accumulators stay empty.
        let repair = stack.smr_repair_tracked().then(|| crate::stats::RepairPoint {
            view_changes: avail.view_changes as f64,
            view_change_latency: avail.mean_failover_latency(),
            transfer_units: avail.transfer_units as f64,
            storm_queue_depth: avail.peak_transfer_queue as f64,
        });
        TrialMeasure {
            lifetime: fell,
            avail: Some(AvailPoint {
                downtime_fraction: (avail.down_steps + post) as f64 / cap as f64,
                failovers: avail.failovers as f64,
                failover_latency: avail.mean_failover_latency(),
                lost_requests: avail.lost_requests as f64,
                degrade: None,
                shard: None,
                repair,
            }),
        }
    }

    /// Attaches a degradation point (goodput-probe observables under a
    /// fault plan) to the availability measurement, if one exists.
    pub fn with_degrade(mut self, degrade: Option<crate::stats::DegradePoint>) -> TrialMeasure {
        if let Some(avail) = self.avail.as_mut() {
            avail.degrade = degrade;
        }
        self
    }

    /// The runner-facing sample: lifetime as the primary value, the
    /// availability point alongside.
    pub(crate) fn into_sample(self) -> Sample {
        Sample {
            value: self.lifetime as f64,
            avail: self.avail,
        }
    }
}

/// One experiment scenario: a pure function from a seed to a measured
/// lifetime in unit time-steps. Object-safe, so heterogeneous scenarios
/// (abstract, event-driven, protocol, campaign) can sit in one sweep.
pub trait Scenario: Send + Sync {
    /// Human-readable cell label (reports, golden files).
    fn label(&self) -> String;

    /// Runs one trial; returns the 1-based step at which the system
    /// fell (or the scenario's step cap if censored). Must be a pure
    /// function of `seed` — that is what makes sweeps deterministic at
    /// any thread count.
    fn run_once(&self, seed: u64) -> u64;

    /// Runs one trial and returns the full [`TrialMeasure`]. The default
    /// wraps [`Scenario::run_once`] with no availability point;
    /// implementors with an availability dimension override it. The
    /// lifetime must equal `run_once(seed)` bit-for-bit — sweeps use
    /// this method, and the equality is what keeps measured sweeps and
    /// lifetime-only estimates on identical trial streams.
    fn run_measured(&self, seed: u64) -> TrialMeasure {
        TrialMeasure::lifetime_only(self.run_once(seed))
    }
}

impl Scenario for AbstractModel {
    fn label(&self) -> String {
        format!("abstract {} {}", kind_label(self.kind), self.policy.suffix())
    }

    /// One step-by-step trial, its RNG stream derived from `seed` exactly
    /// as the runner derives per-trial streams — so
    /// [`AbstractModel::estimate_with`] and a scenario sweep of the same
    /// model return identical bits.
    fn run_once(&self, seed: u64) -> u64 {
        let mut rng = SmallRng::seed_from_u64(seed);
        self.simulate_once(&mut rng)
    }
}

impl Scenario for ProtocolExperiment {
    fn label(&self) -> String {
        format!(
            "protocol {} {} chi=2^{}{}{}{}{}",
            class_label(self.class),
            self.policy.suffix(),
            self.entropy_bits,
            outage_suffix(self.outage),
            fault_suffix(self.fault),
            shard_suffix(self.shard),
            repair_suffix(self.repair),
        )
    }

    fn run_once(&self, seed: u64) -> u64 {
        ProtocolExperiment::run_once(self, seed)
    }

    fn run_measured(&self, seed: u64) -> TrialMeasure {
        ProtocolExperiment::run_measured(self, seed)
    }
}

/// The declarative coordinate of one scenario cell — which engine runs
/// it and with which parameters. `Copy`, so sweeps can treat it as a
/// value; its [content seed](ScenarioSpec::content_seed) is a pure
/// function of every field.
#[derive(Clone, Copy, Debug)]
pub enum ScenarioSpec {
    /// Step-by-step abstract-model simulation ([`AbstractModel`]).
    Abstract(AbstractModel),
    /// Event-driven sampling from the closed-form distributions — O(1)
    /// per trial, the only fidelity that reaches the `α = 10⁻⁵` corner.
    Event {
        /// System class (κ embedded for S2).
        kind: SystemKind,
        /// Obfuscation policy.
        policy: Policy,
        /// Attack parameters.
        params: AttackParams,
        /// Launch-pad semantics (S2 only).
        launch_pad: LaunchPad,
    },
    /// Protocol-level stacks under the paper's baseline attacker.
    Protocol(ProtocolExperiment),
    /// Protocol-level stacks under an explicit adversary strategy — a
    /// campaign cell.
    Campaign {
        /// The experiment template (class, policy, entropy, suspicion,
        /// fleet size, ω, step cap).
        experiment: ProtocolExperiment,
        /// The adversary posture.
        strategy: StrategyKind,
    },
}

impl Scenario for ScenarioSpec {
    fn label(&self) -> String {
        match self {
            ScenarioSpec::Abstract(m) => m.label(),
            ScenarioSpec::Event { kind, policy, params, .. } => format!(
                "event {} {} alpha={:.1e}",
                kind_label(*kind),
                policy.suffix(),
                params.alpha()
            ),
            ScenarioSpec::Protocol(e) => e.label(),
            ScenarioSpec::Campaign { experiment: e, strategy } => format!(
                "{} {} chi=2^{} w={}/t={} np={} {}{}{}{}{}",
                class_label(e.class),
                e.policy.suffix(),
                e.entropy_bits,
                e.suspicion.window,
                e.suspicion.threshold,
                e.np,
                strategy.display_label(),
                outage_suffix(e.outage),
                fault_suffix(e.fault),
                shard_suffix(e.shard),
                repair_suffix(e.repair),
            ),
        }
    }

    fn run_once(&self, seed: u64) -> u64 {
        self.run_measured(seed).lifetime
    }

    fn run_measured(&self, seed: u64) -> TrialMeasure {
        match *self {
            ScenarioSpec::Abstract(m) => TrialMeasure::lifetime_only(m.run_once(seed)),
            ScenarioSpec::Event { kind, policy, params, launch_pad } => {
                let mut rng = SmallRng::seed_from_u64(seed);
                TrialMeasure::lifetime_only(sample_lifetime(
                    kind, policy, &params, launch_pad, &mut rng,
                ))
            }
            ScenarioSpec::Protocol(e) => ProtocolExperiment::run_measured(&e, seed),
            ScenarioSpec::Campaign { experiment, strategy } => {
                run_cell_measured(&experiment, strategy, seed)
            }
        }
    }
}

impl ScenarioSpec {
    /// The cell's base seed under `base_seed` — a pure function of the
    /// cell *content* (every parameter, never a sweep position), mixed
    /// through the same SplitMix64 fold the campaign grids use.
    /// Consequences: per-cell results are invariant under sweep
    /// reordering and subsetting, and any two cells differing in any
    /// parameter draw decorrelated trial streams.
    pub fn content_seed(&self, base_seed: u64) -> u64 {
        match *self {
            ScenarioSpec::Abstract(m) => {
                let mut s = fold(base_seed, 0xAB57_4AC7);
                s = fold_kind(s, m.kind);
                s = fold(s, m.policy.id());
                s = fold(s, m.params.chi().to_bits());
                s = fold(s, m.params.omega().to_bits());
                s = fold(s, pad_id(m.launch_pad));
                fold(s, m.max_steps)
            }
            ScenarioSpec::Event { kind, policy, params, launch_pad } => {
                let mut s = fold(base_seed, 0x0E7E_4272);
                s = fold_kind(s, kind);
                s = fold(s, policy.id());
                s = fold(s, params.chi().to_bits());
                s = fold(s, params.omega().to_bits());
                fold(s, pad_id(launch_pad))
            }
            ScenarioSpec::Protocol(e) => fold_experiment(fold(base_seed, 0x9207_0C01), &e),
            ScenarioSpec::Campaign { experiment, strategy } => {
                let s = fold_experiment(fold(base_seed, 0x00CA_4A17), &experiment);
                fold(s, strategy.id())
            }
        }
    }

    /// The step cap this scenario censors at, if it has one.
    pub fn step_cap(&self) -> Option<u64> {
        match self {
            ScenarioSpec::Abstract(m) => Some(m.max_steps),
            ScenarioSpec::Event { .. } => None,
            ScenarioSpec::Protocol(e) | ScenarioSpec::Campaign { experiment: e, .. } => {
                Some(e.max_steps)
            }
        }
    }

    /// The indirect-attack coefficient κ this cell realizes, where one
    /// is defined: the embedded κ for abstract/event S2 cells, the
    /// suspicion-induced κ for protocol S2 cells (baseline = paced), and
    /// the strategy's long-run κ for campaign S2 cells (None for
    /// strategies without a steady indirect rate, and for 1-tier
    /// classes, where κ has no meaning).
    pub fn kappa(&self) -> Option<f64> {
        match *self {
            ScenarioSpec::Abstract(AbstractModel { kind, .. })
            | ScenarioSpec::Event { kind, .. } => match kind {
                SystemKind::S2Fortress { kappa } => Some(kappa),
                _ => None,
            },
            ScenarioSpec::Protocol(e) => (e.class == SystemClass::S2Fortress)
                .then(|| e.suspicion.induced_kappa(e.omega)),
            ScenarioSpec::Campaign { experiment: e, strategy } => {
                if e.class != SystemClass::S2Fortress {
                    return None;
                }
                strategy.indirect_kappa(e.suspicion, e.omega)
            }
        }
    }
}

/// Runs one scenario through the parallel runner: trial `i` executes
/// `spec.run_once(trial_seed(base_seed, i))`, so results are
/// bit-identical at any thread count and reproduce cell-by-cell inside
/// any sweep that assigns the same seed. This is the single MC entry
/// point `AbstractModel::estimate_with` and
/// `ProtocolExperiment::estimate_with` delegate to.
pub fn run_scenario(
    spec: ScenarioSpec,
    runner: &Runner,
    budget: TrialBudget,
    base_seed: u64,
) -> RunningStats {
    run_scenario_measured(spec, runner, budget, base_seed).0
}

/// [`run_scenario`] with the merged availability statistics alongside
/// the lifetime statistics: the same trials, the same chunk-ordered
/// merge tree (one reduction per chunk carries both accumulators), so
/// both returns are bit-identical at any thread count and the lifetime
/// statistics equal `run_scenario`'s exactly.
pub fn run_scenario_measured(
    spec: ScenarioSpec,
    runner: &Runner,
    budget: TrialBudget,
    base_seed: u64,
) -> (RunningStats, AvailStats) {
    let trial: TrialFn = Arc::new(move |i, _rng: &mut SmallRng| {
        spec.run_measured(trial_seed(base_seed, i)).into_sample()
    });
    match runner.try_run_samples(base_seed, budget, trial) {
        Ok(stats) => (stats.value, stats.avail),
        Err(e) => panic!("{e}"),
    }
}

/// One compiled sweep cell: a scenario, its display label, and its
/// content-derived seed.
#[derive(Clone, Debug)]
pub struct SweepCell {
    /// Display label (reports, golden files).
    pub label: String,
    /// The scenario coordinate.
    pub spec: ScenarioSpec,
    /// The cell's base seed (trial `i` runs at
    /// [`trial_seed`]`(seed, i)`).
    pub seed: u64,
}

impl SweepCell {
    /// A cell from a spec, seeded by the spec's content under
    /// `base_seed`.
    pub fn of(spec: ScenarioSpec, base_seed: u64) -> SweepCell {
        SweepCell {
            label: spec.label(),
            spec,
            seed: spec.content_seed(base_seed),
        }
    }
}

/// A declarative sweep: nine axes over a shared experiment template,
/// compiled to a flat, content-seeded cell list.
///
/// For [`SystemClass::S2Fortress`] the full cartesian product of
/// suspicion × fleet × strategy applies; for the 1-tier classes those
/// axes are vacuous (there is no proxy tier to pace against), so each
/// (class, policy, entropy) coordinate compiles to a single
/// [`ScenarioSpec::Protocol`] cell instead of duplicated ones.
#[derive(Clone, Debug)]
pub struct SweepSpec {
    /// System-class axis.
    pub classes: Vec<SystemClass>,
    /// Service-order policy axis (SO/PO).
    pub policies: Vec<Policy>,
    /// Key-entropy axis (χ = 2^bits).
    pub entropy_bits: Vec<u32>,
    /// Suspicion-policy axis (S2 cells only).
    pub suspicions: Vec<SuspicionPolicy>,
    /// Proxy-fleet-size axis (S2 cells only).
    pub fleets: Vec<usize>,
    /// Adversary-strategy axis (S2 cells only).
    pub strategies: Vec<StrategyKind>,
    /// Outage-schedule axis (PB-tier classes — S1 and S2; vacuous for
    /// S0, whose availability story is the SMR quorum's).
    pub outages: Vec<OutageSpec>,
    /// Network-fault axis (every class — faults live at the transport
    /// layer, below the replication scheme).
    pub faults: Vec<FaultSpec>,
    /// Shard axis (S2 cells only — the fleet multiplies fortress
    /// *groups*, which only the fortified class deploys as tenants
    /// behind the key-hash directory).
    pub shards: Vec<ShardSpec>,
    /// Repair axis (S0 cells only — crash schedules routed through the
    /// SMR view-change path with divergence-priced state transfer; the
    /// PB classes recover through failover, covered by the outage axis).
    pub repairs: Vec<RepairSpec>,
    /// Shared experiment template; each cell overrides the swept fields.
    pub base: ProtocolExperiment,
}

impl SweepSpec {
    /// A sweep with every axis pinned to the template's value (one
    /// paced cell); widen axes with the builder methods.
    pub fn new(base: ProtocolExperiment) -> SweepSpec {
        SweepSpec {
            classes: vec![base.class],
            policies: vec![base.policy],
            entropy_bits: vec![base.entropy_bits],
            suspicions: vec![base.suspicion],
            fleets: vec![base.np],
            strategies: vec![StrategyKind::PacedBelowThreshold],
            outages: vec![base.outage],
            faults: vec![base.fault],
            shards: vec![base.shard],
            repairs: vec![base.repair],
            base,
        }
    }

    /// Replaces the system-class axis.
    pub fn classes(mut self, classes: Vec<SystemClass>) -> SweepSpec {
        self.classes = classes;
        self
    }

    /// Replaces the service-order policy axis.
    pub fn policies(mut self, policies: Vec<Policy>) -> SweepSpec {
        self.policies = policies;
        self
    }

    /// Replaces the entropy axis.
    pub fn entropies(mut self, entropy_bits: Vec<u32>) -> SweepSpec {
        self.entropy_bits = entropy_bits;
        self
    }

    /// Replaces the suspicion-policy axis.
    pub fn suspicions(mut self, suspicions: Vec<SuspicionPolicy>) -> SweepSpec {
        self.suspicions = suspicions;
        self
    }

    /// Replaces the fleet-size axis.
    pub fn fleets(mut self, fleets: Vec<usize>) -> SweepSpec {
        self.fleets = fleets;
        self
    }

    /// Replaces the adversary-strategy axis.
    pub fn strategies(mut self, strategies: Vec<StrategyKind>) -> SweepSpec {
        self.strategies = strategies;
        self
    }

    /// Replaces the outage-schedule axis (the availability dimension).
    pub fn outages(mut self, outages: Vec<OutageSpec>) -> SweepSpec {
        self.outages = outages;
        self
    }

    /// Replaces the network-fault axis (the degraded-network dimension).
    pub fn faults(mut self, faults: Vec<FaultSpec>) -> SweepSpec {
        self.faults = faults;
        self
    }

    /// Replaces the shard axis (the multi-tenant fleet dimension).
    pub fn shards(mut self, shards: Vec<ShardSpec>) -> SweepSpec {
        self.shards = shards;
        self
    }

    /// Replaces the repair axis (the SMR repair-economics dimension).
    pub fn repairs(mut self, repairs: Vec<RepairSpec>) -> SweepSpec {
        self.repairs = repairs;
        self
    }

    /// Compiles the axes to the flat cell list in axis-major order
    /// (class, policy, entropy, suspicion, fleet, strategy, outage,
    /// fault, shard, repair). The order is presentation only — every
    /// cell's seed derives from its content, so reordering or subsetting
    /// axes changes no cell's trials. Vacuous axes collapse: 1-tier
    /// classes skip suspicion / fleet / strategy **and the shard axis**
    /// (only the fortified class deploys fleet tenants), S0 skips the
    /// outage axis (its crash story is the repair axis, routed through
    /// the view-change protocol), and the repair axis applies to S0
    /// only (PB-tier recovery is failover, already the outage axis's
    /// subject). The fault axis applies to every class — network faults
    /// live at the transport layer, below the replication scheme.
    pub fn compile(&self, base_seed: u64) -> Vec<SweepCell> {
        let mut cells = Vec::new();
        for &class in &self.classes {
            for &policy in &self.policies {
                for &entropy_bits in &self.entropy_bits {
                    if class == SystemClass::S2Fortress {
                        for &suspicion in &self.suspicions {
                            for &np in &self.fleets {
                                for &strategy in &self.strategies {
                                    for &outage in &self.outages {
                                        for &fault in &self.faults {
                                            for &shard in &self.shards {
                                                let experiment = ProtocolExperiment {
                                                    class,
                                                    policy,
                                                    entropy_bits,
                                                    suspicion,
                                                    np,
                                                    outage,
                                                    fault,
                                                    shard,
                                                    repair: RepairSpec::None,
                                                    ..self.base
                                                };
                                                cells.push(SweepCell::of(
                                                    ScenarioSpec::Campaign {
                                                        experiment,
                                                        strategy,
                                                    },
                                                    base_seed,
                                                ));
                                            }
                                        }
                                    }
                                }
                            }
                        }
                    } else {
                        let outages: &[OutageSpec] = if class == SystemClass::S0Smr {
                            &[OutageSpec::None]
                        } else {
                            &self.outages
                        };
                        let repairs: &[RepairSpec] = if class == SystemClass::S0Smr {
                            &self.repairs
                        } else {
                            &[RepairSpec::None]
                        };
                        for &outage in outages {
                            for &fault in &self.faults {
                                for &repair in repairs {
                                    let experiment = ProtocolExperiment {
                                        class,
                                        policy,
                                        entropy_bits,
                                        outage,
                                        fault,
                                        shard: ShardSpec::None,
                                        repair,
                                        ..self.base
                                    };
                                    cells.push(SweepCell::of(
                                        ScenarioSpec::Protocol(experiment),
                                        base_seed,
                                    ));
                                }
                            }
                        }
                    }
                }
            }
        }
        cells
    }
}

/// The default sweep the `campaign` bench binary runs: the SO campaign
/// grid (paper suspicion trio × fleets 1/3/5 × all strategies, Sybil
/// included) plus a PO slice — proactive re-randomization at a smaller
/// key space and step cap, so PO cells stay ms-scale while the
/// PO-policy axis is genuinely exercised.
pub fn paper_default_sweep(base_seed: u64) -> Vec<SweepCell> {
    let so = SweepSpec::new(ProtocolExperiment {
        entropy_bits: 8,
        omega: 8.0,
        max_steps: 4_000,
        ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
    })
    .suspicions(SuspicionPolicy::paper_grid().to_vec())
    .fleets(vec![1, 3, 5])
    .strategies(StrategyKind::ALL.to_vec());
    let po = SweepSpec::new(ProtocolExperiment {
        entropy_bits: 6,
        omega: 8.0,
        max_steps: 800,
        ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::Proactive)
    })
    .suspicions(vec![SuspicionPolicy::paper_grid()[2]])
    .strategies(StrategyKind::ALL.to_vec());
    let mut cells = so.compile(base_seed);
    cells.extend(po.compile(base_seed));
    cells
}

/// The availability slice the `campaign` bench and CI smoke run: three
/// outage schedules (none / periodic / Poisson-seeded) against the
/// paper's tightest suspicion policy, under both a rate-disciplined
/// adversary and the outage-timing [`StrategyKind::OutageStrike`]
/// attacker, on the fortified S2 — plus the same schedules against the
/// bare-PB S1 baseline (strategy axis vacuous there), so the fortified
/// vs bare availability comparison rides in one report.
pub fn availability_sweep(base_seed: u64) -> Vec<SweepCell> {
    let outages = vec![
        OutageSpec::None,
        OutageSpec::Periodic {
            period: 40,
            downtime: 25,
        },
        OutageSpec::Random {
            rate: 0.01,
            downtime: 25,
        },
    ];
    let s2 = SweepSpec::new(availability_base(SystemClass::S2Fortress))
        .strategies(vec![
            StrategyKind::PacedBelowThreshold,
            StrategyKind::OutageStrike,
        ])
        .outages(outages.clone());
    let s1 = SweepSpec::new(availability_base(SystemClass::S1Pb)).outages(outages);
    let mut cells = s2.compile(base_seed);
    cells.extend(s1.compile(base_seed));
    cells
}

/// The shared experiment template of the availability slice — one
/// definition, reused by [`availability_sweep`], the directional tests
/// and the availability example, so a tuning change cannot silently
/// leave them on different configurations. Longer-lived cells than the
/// lifetime grids: the availability signal needs trials that survive
/// deep into the mission window (several outage periods), so the key
/// space is wider and the attacker slower than in the
/// compromise-focused sweeps.
pub fn availability_base(class: SystemClass) -> ProtocolExperiment {
    ProtocolExperiment {
        entropy_bits: 10,
        omega: 4.0,
        max_steps: 300,
        suspicion: SuspicionPolicy::paper_grid()[0],
        ..ProtocolExperiment::new(class, Policy::StartupOnly)
    }
}

/// The network-fault slice the `campaign` bench and CI smoke run: three
/// fault coordinates (a clean network, light per-link loss with a
/// 2-retry client, heavy loss plus jitter and duplication with a
/// 3-retry client) on the fortified S2 under a rate-disciplined
/// adversary, plus the same coordinates on the bare-PB S1 baseline —
/// the degraded-network analogue of [`availability_sweep`], riding the
/// same report machinery. The `FaultSpec::None` cells run the exact
/// pre-axis code path, so this sweep doubles as a passthrough check.
pub fn fault_sweep(base_seed: u64) -> Vec<SweepCell> {
    let faults = vec![
        FaultSpec::None,
        FaultSpec::Degraded {
            plan: FaultPlan::Degraded {
                loss: 0.05,
                delay_min: 0,
                delay_max: 2,
                dup: 0.0,
                partition: None,
                slow: None,
            },
            retry: RetryPolicy::retrying(8, 2, 2),
        },
        FaultSpec::Degraded {
            plan: FaultPlan::Degraded {
                loss: 0.10,
                delay_min: 0,
                delay_max: 3,
                dup: 0.02,
                partition: None,
                slow: None,
            },
            retry: RetryPolicy::retrying(8, 3, 2),
        },
    ];
    let s2 = SweepSpec::new(fault_base(SystemClass::S2Fortress)).faults(faults.clone());
    let s1 = SweepSpec::new(fault_base(SystemClass::S1Pb)).faults(faults);
    let mut cells = s2.compile(base_seed);
    cells.extend(s1.compile(base_seed));
    cells
}

/// The shared experiment template of the fault slice — one definition,
/// reused by [`fault_sweep`], the directional goodput tests and the
/// fault-sweep example, so a tuning change cannot silently leave them
/// on different configurations. Like [`availability_base`], the cells
/// are survival-biased (wide key space, slow attacker) so the goodput
/// signal comes from trials that live deep into the mission window.
pub fn fault_base(class: SystemClass) -> ProtocolExperiment {
    ProtocolExperiment {
        entropy_bits: 10,
        omega: 4.0,
        max_steps: 200,
        suspicion: SuspicionPolicy::paper_grid()[0],
        ..ProtocolExperiment::new(class, Policy::StartupOnly)
    }
}

/// The shard slice the `campaign` bench and CI smoke run: a vacuous
/// coordinate (the exact single-stack pre-axis path, doubling as a
/// passthrough check), a 3-group fleet under both cross-shard
/// placements, and a concentrated fleet with a mid-trial rebalance —
/// all on the fortified S2 under a rate-disciplined adversary.
pub fn shard_sweep(base_seed: u64) -> Vec<SweepCell> {
    let shards = vec![
        ShardSpec::None,
        ShardSpec::Sharded {
            shards: 3,
            zipf_s: 1.2,
            placement: ShardPlacement::Concentrate,
            rebalance_at: 0,
        },
        ShardSpec::Sharded {
            shards: 3,
            zipf_s: 1.2,
            placement: ShardPlacement::Spread,
            rebalance_at: 0,
        },
        ShardSpec::Sharded {
            shards: 3,
            zipf_s: 1.2,
            placement: ShardPlacement::Concentrate,
            rebalance_at: 6,
        },
    ];
    SweepSpec::new(shard_base()).shards(shards).compile(base_seed)
}

/// The shared experiment template of the shard slice — one definition,
/// reused by [`shard_sweep`], the directional placement tests and the
/// shard-sweep example. Fall-biased (narrow key space, full-rate
/// attacker) so the hottest-shard lifetime signal lands inside the
/// mission window instead of censoring at it.
pub fn shard_base() -> ProtocolExperiment {
    ProtocolExperiment {
        entropy_bits: 7,
        omega: 8.0,
        max_steps: 400,
        suspicion: SuspicionPolicy { window: 16, threshold: 8 },
        ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
    }
}

/// The repair slice the `campaign` bench and CI smoke run, all on the
/// SMR-quorum S0 under a slow rate-disciplined adversary: a vacuous
/// coordinate (the exact single-stack pre-axis path, doubling as a
/// passthrough check), a single leader crash (one full view change),
/// and a two-crash schedule under both recovery disciplines —
/// staggered (each machine rejoins `downtime` after its own crash) and
/// storm (correlated bring-ups contending head-of-line for the
/// bandwidth budget while the quorum is hostage). The storm cell is
/// the economics headline: same crashes, same downtime parameter,
/// strictly more measured downtime.
pub fn repair_sweep(base_seed: u64) -> Vec<SweepCell> {
    let repairs = vec![
        RepairSpec::None,
        RepairSpec::Smr {
            crashes: 1,
            crash_at: 40,
            stagger: 60,
            downtime: 30,
            bandwidth: 1,
            storm: false,
        },
        RepairSpec::Smr {
            crashes: 2,
            crash_at: 40,
            stagger: 60,
            downtime: 30,
            bandwidth: 1,
            storm: false,
        },
        RepairSpec::Smr {
            crashes: 2,
            crash_at: 40,
            stagger: 60,
            downtime: 30,
            bandwidth: 1,
            storm: true,
        },
    ];
    SweepSpec::new(repair_base()).repairs(repairs).compile(base_seed)
}

/// The shared experiment template of the repair slice — one definition,
/// reused by [`repair_sweep`], the directional storm tests and the CI
/// smoke. Survival-biased (wide key space, slow attacker) so the
/// repair signal comes from trials that live through the whole crash
/// schedule; the 300-step window fits the storm cell's full recovery
/// (last rejoiner paid off around step 250 at bandwidth 1).
pub fn repair_base() -> ProtocolExperiment {
    ProtocolExperiment {
        entropy_bits: 12,
        omega: 2.0,
        max_steps: 300,
        ..ProtocolExperiment::new(SystemClass::S0Smr, Policy::StartupOnly)
    }
}

/// The measured outcome of one sweep cell.
#[derive(Clone, Debug)]
pub struct SweepOutcome {
    /// The cell that ran.
    pub cell: SweepCell,
    /// The κ the cell realizes, where defined (see
    /// [`ScenarioSpec::kappa`]).
    pub kappa: Option<f64>,
    /// Full trial statistics (the estimate's source of truth, plus
    /// min/max for censoring detection).
    pub stats: RunningStats,
    /// Lifetime estimate (mean steps until compromise, 95% CI).
    pub estimate: Estimate,
    /// Whether any trial reached the scenario's step cap (read the mean
    /// as a lower bound when set).
    pub censored: bool,
    /// Availability statistics across the cell's trials — empty for
    /// scenarios without an availability dimension (abstract,
    /// event-driven).
    pub avail: AvailStats,
}

impl SweepOutcome {
    /// The outcome of `cell` given its merged lifetime and availability
    /// statistics — the single definition of the derived fields
    /// (estimate, κ, censoring), shared by the scheduler and every
    /// cell-at-a-time driver so their reports cannot diverge in anything
    /// but scheduling.
    pub fn measured(cell: &SweepCell, stats: RunningStats, avail: AvailStats) -> SweepOutcome {
        let censored = cell
            .spec
            .step_cap()
            .is_some_and(|cap| stats.max() >= cap as f64);
        SweepOutcome {
            kappa: cell.spec.kappa(),
            estimate: stats.estimate(),
            stats,
            censored,
            avail,
            cell: cell.clone(),
        }
    }
}

/// All cell outcomes of one sweep, in input-cell order.
#[derive(Clone, Debug)]
pub struct SweepReport {
    /// Outcomes, one per input cell, in input order.
    pub cells: Vec<SweepOutcome>,
}

impl SweepReport {
    /// Renders the report as a CSV table (one row per cell), one column
    /// per [`METRICS`] row in table order (`-` where a cell measured
    /// nothing). The [`MetricGroup::Avail`] columns always appear; every
    /// other group's columns appear only when some cell sampled that
    /// group — sweeps without the fault, shard or repair axes keep the
    /// exact pre-axis column set, which the golden files pin.
    pub fn to_table(&self) -> CsvTable {
        let shown: Vec<&Metric> = METRICS
            .iter()
            .filter(|m| {
                m.group == MetricGroup::Avail || self.cells.iter().any(|o| o.avail.sampled(m.group))
            })
            .collect();
        let mut headers = vec![
            "cell",
            "kappa",
            "mean_lifetime",
            "ci_low",
            "ci_high",
            "trials",
            "censored",
        ];
        headers.extend(shown.iter().map(|m| m.csv));
        let mut table = CsvTable::new(&headers);
        for o in &self.cells {
            let mut row = vec![
                o.cell.label.clone(),
                o.kappa.map(fmt_num).unwrap_or_else(|| "-".to_string()),
                fmt_num(o.estimate.mean),
                fmt_num(o.estimate.ci_low),
                fmt_num(o.estimate.ci_high),
                o.estimate.n.to_string(),
                o.censored.to_string(),
            ];
            row.extend(shown.iter().map(|m| fmt_avail(&o.avail[m.id])));
            table.push_row(row);
        }
        table
    }

    /// Renders the report as a JSON array (stable field order, input
    /// order, every [`METRICS`] row in table order) — the determinism
    /// comparator the bench binaries diff. The metric means are
    /// full-precision so serial/parallel drift in any metric fails the
    /// comparison, not just the lifetimes.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[");
        for (i, o) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let kappa = o
                .kappa
                .map(|k| k.to_string())
                .unwrap_or_else(|| "null".to_string());
            out.push_str(&format!(
                "{{\"cell\":\"{}\",\"kappa\":{},\"mean\":{},\"n\":{},\"censored\":{}",
                o.cell.label, kappa, o.estimate.mean, o.estimate.n, o.censored,
            ));
            for m in METRICS {
                out.push_str(&format!(",\"{}\":{}", m.json, avail_json(&o.avail[m.id])));
            }
            out.push('}');
        }
        out.push(']');
        out
    }

    /// Mean of `metric` across every cell that measured it (`None` when
    /// no cell did) — the sweep-level headlines the campaign bench
    /// emits, e.g. [`MetricId::Downtime`] for the availability slice or
    /// [`MetricId::ViewChangeLatency`] for the repair slice.
    pub fn cell_mean(&self, metric: MetricId) -> Option<f64> {
        let mut acc = RunningStats::new();
        for o in &self.cells {
            if o.avail[metric].n() > 0 {
                acc.push(o.avail[metric].mean());
            }
        }
        (acc.n() > 0).then(|| acc.mean())
    }

    /// Ratio of the mean hottest-shard lifetime under concentrated vs
    /// spread placement, across the sharded cells (`None` unless both
    /// placements appear) — the shard-axis headline the campaign bench
    /// emits: below 1.0 means concentrating the probe budget kills the
    /// hottest shard faster.
    pub fn hot_shard_lifetime_ratio(&self) -> Option<f64> {
        let mut conc = RunningStats::new();
        let mut spread = RunningStats::new();
        for o in &self.cells {
            let hot = o.avail[MetricId::HotLifetime];
            if hot.n() == 0 {
                continue;
            }
            let (ScenarioSpec::Protocol(e) | ScenarioSpec::Campaign { experiment: e, .. }) =
                o.cell.spec
            else {
                continue;
            };
            if let ShardSpec::Sharded { placement, .. } = e.shard {
                match placement {
                    ShardPlacement::Concentrate => &mut conc,
                    ShardPlacement::Spread => &mut spread,
                }
                .push(hot.mean());
            }
        }
        (conc.n() > 0 && spread.n() > 0 && spread.mean() > 0.0)
            .then(|| conc.mean() / spread.mean())
    }
}

/// Runs sweep cells as first-class jobs on one shared worker pool (the
/// two-level work queue described in the [module docs](self)).
///
/// Per-cell results are bit-identical to running each cell through
/// [`Runner::run`] with the same budget and chunk size — at any thread
/// count, including the pool-less 1-thread runner, which executes the
/// cells serially on the caller's thread and is the reference.
pub struct SweepScheduler {
    runner: Runner,
    budget: TrialBudget,
}

/// One in-flight batch: which cell it belongs to, where its trial range
/// ends, and its per-chunk results awaiting in-order merge.
struct Batch {
    cell: usize,
    end: u64,
    chunks: Vec<Option<SampleStats>>,
    received: usize,
}

/// Per-cell budget progress.
struct CellState {
    acc: SampleStats,
    done: u64,
    started: bool,
}

impl SweepScheduler {
    /// A scheduler on `runner`'s pool with `budget` per cell and the
    /// campaign-standard [`CELL_CHUNK`] trials per work unit.
    pub fn new(runner: &Runner, budget: TrialBudget) -> SweepScheduler {
        SweepScheduler {
            runner: runner.clone().with_chunk(CELL_CHUNK),
            budget,
        }
    }

    /// Overrides the per-cell chunk size (part of the merge tree and
    /// hence of the pinned bits — see [`Runner::with_chunk`]).
    pub fn with_chunk(mut self, chunk: u64) -> SweepScheduler {
        self.runner = self.runner.with_chunk(chunk);
        self
    }

    /// The next trial range `budget` prescribes for a cell —
    /// [`TrialBudget::next_range`], the same unrolling `Runner::run`
    /// executes, so the two trial schedules cannot drift apart.
    fn next_range(&self, state: &CellState) -> Option<(u64, u64)> {
        self.budget
            .next_range(state.started, state.done, &state.acc.value)
    }

    /// Drives `cell` forward: submits its next batch to the pool (returns
    /// `true`), or — on pool-less runners and empty ranges — executes
    /// batches serially on the calling thread until the cell finishes
    /// (returns `false`).
    #[allow(clippy::too_many_arguments)]
    fn advance(
        &self,
        cell: usize,
        trial: &TrialFn,
        seed: u64,
        state: &mut CellState,
        results: &Sender<ChunkResult>,
        batches: &mut Vec<Option<Batch>>,
        free_tags: &mut Vec<usize>,
    ) -> bool {
        while let Some((start, end)) = self.next_range(state) {
            let tag = free_tags.pop().unwrap_or_else(|| {
                batches.push(None);
                batches.len() - 1
            });
            match self.runner.submit_batch(tag, seed, start, end, trial, results) {
                Some(n_chunks) => {
                    batches[tag] = Some(Batch {
                        cell,
                        end,
                        chunks: vec![None; n_chunks],
                        received: 0,
                    });
                    return true;
                }
                None => {
                    // No pool, or an empty range: run it here, with the
                    // same chunk-then-merge arithmetic.
                    free_tags.push(tag);
                    let stats = self.runner.batch_serial(seed, start, end, &**trial);
                    state.acc.merge(&stats);
                    state.done = end;
                    state.started = true;
                }
            }
        }
        false
    }

    /// Runs every cell and returns their outcomes in input order.
    ///
    /// # Panics
    ///
    /// Panics (with [`RunnerError::NestedPoolRun`]'s message) when called
    /// from inside one of this runner's own pool workers, and when a
    /// trial closure panics on a pool worker (which degrades the pool,
    /// exactly as under [`Runner::run`]).
    pub fn run(&self, cells: &[SweepCell]) -> SweepReport {
        assert!(
            !self.runner.on_own_pool_worker(),
            "{}",
            RunnerError::NestedPoolRun
        );
        let trials: Vec<TrialFn> = cells
            .iter()
            .map(|cell| {
                let spec = cell.spec;
                let seed = cell.seed;
                Arc::new(move |i: u64, _rng: &mut SmallRng| {
                    spec.run_measured(trial_seed(seed, i)).into_sample()
                }) as TrialFn
            })
            .collect();
        let mut states: Vec<CellState> = cells
            .iter()
            .map(|_| CellState {
                acc: SampleStats::new(),
                done: 0,
                started: false,
            })
            .collect();
        let (tx, rx) = channel::<ChunkResult>();
        let mut batches: Vec<Option<Batch>> = Vec::new();
        let mut free_tags: Vec<usize> = Vec::new();
        let mut in_flight = 0usize;
        for (index, trial) in trials.iter().enumerate() {
            let submitted = self.advance(
                index,
                trial,
                cells[index].seed,
                &mut states[index],
                &tx,
                &mut batches,
                &mut free_tags,
            );
            in_flight += usize::from(submitted);
        }
        while in_flight > 0 {
            let result = rx
                .recv()
                .expect("sweep result channel closed with batches in flight");
            // A panicking trial reports a poisoned chunk before killing
            // its worker; fail fast here — the scheduler's own sender
            // keeps the channel open, so waiting for closure would hang.
            assert!(!result.panicked, "{POOLED_PANIC_MSG}");
            let batch = batches[result.tag]
                .as_mut()
                .expect("chunk tagged for a batch that is not in flight");
            batch.chunks[result.index] = Some(result.stats);
            batch.received += 1;
            if batch.received < batch.chunks.len() {
                continue;
            }
            let batch = batches[result.tag].take().expect("batch checked above");
            free_tags.push(result.tag);
            in_flight -= 1;
            // Merge in chunk-index order — the fixed reduction tree that
            // makes pooled and serial execution bit-identical.
            let mut batch_stats = SampleStats::new();
            for stats in batch.chunks {
                batch_stats.merge(&stats.expect("all chunks accounted for"));
            }
            let cell = batch.cell;
            let state = &mut states[cell];
            state.acc.merge(&batch_stats);
            state.done = batch.end;
            state.started = true;
            let submitted = self.advance(
                cell,
                &trials[cell],
                cells[cell].seed,
                state,
                &tx,
                &mut batches,
                &mut free_tags,
            );
            in_flight += usize::from(submitted);
        }
        SweepReport {
            cells: cells
                .iter()
                .zip(states)
                .map(|(cell, state)| {
                    SweepOutcome::measured(cell, state.acc.value, state.acc.avail)
                })
                .collect(),
        }
    }
}

/// One protocol-vs-abstract comparison row: a protocol-level S2 cell's
/// measured mean lifetime against the abstract model's closed-form
/// prediction at the cell's κ, χ and ω.
#[derive(Clone, Debug)]
pub struct CrossCheckRow {
    /// The protocol cell's label.
    pub label: String,
    /// The κ the cell's strategy realizes against its suspicion policy.
    pub kappa: f64,
    /// Measured mean lifetime (protocol trials).
    pub measured: f64,
    /// Abstract S2 model prediction at (κ, χ, ω).
    pub predicted: f64,
    /// `measured / predicted` — near 1 where the abstract model's shape
    /// survives contact with the implementation.
    pub ratio: f64,
    /// Whether the cell censored at its step cap: `measured` is then a
    /// lower bound, and a small `ratio` means "the cap was too low", not
    /// "the model diverged".
    pub censored: bool,
    /// Measured mean downtime fraction across the cell's trials (`None`
    /// when the cell produced no availability samples).
    pub downtime: Option<f64>,
    /// Closed-form availability prediction: the outage schedule's
    /// expected downtime ([`OutageSpec::expected_downtime_fraction`] at
    /// the deployed fleet size and PB failover timeout) plus the
    /// expected compromise tail of the mission window (`1 − EL/cap` at
    /// the abstract model's predicted lifetime), clamped to 1. `None`
    /// for schedules without a steady rate (strike-then-crash).
    pub predicted_downtime: Option<f64>,
}

/// Cell-by-cell cross-validation of protocol-level S2 cells against the
/// abstract S2 model's κ predictions — the fidelity-closing report the
/// ROADMAP's scenario-growth item asks for. Cells whose strategy has no
/// steady indirect rate (scan-then-strike, adaptive backoff) have no κ
/// to read the model at and are skipped, as are cells whose parameters
/// fall outside the model's domain (ω ≥ χ, non-finite predictions).
#[derive(Clone, Debug)]
pub struct CrossCheck {
    /// One row per comparable protocol cell, in report order.
    pub rows: Vec<CrossCheckRow>,
}

impl CrossCheck {
    /// Builds the cross-check for every comparable cell of `report`.
    pub fn of(report: &SweepReport) -> CrossCheck {
        let rows = report
            .cells
            .iter()
            .filter_map(|o| {
                let experiment = match o.cell.spec {
                    ScenarioSpec::Campaign { experiment, .. } => experiment,
                    ScenarioSpec::Protocol(e) => e,
                    _ => return None,
                };
                if experiment.class != SystemClass::S2Fortress {
                    return None;
                }
                let kappa = o.kappa?;
                let chi = (2.0f64).powi(experiment.entropy_bits as i32);
                let params = AttackParams::new(chi, experiment.omega).ok()?;
                let predicted = match experiment.policy {
                    Policy::StartupOnly => {
                        expected_lifetime_s2_so(&params, kappa, LaunchPad::NextStep)
                    }
                    Policy::Proactive => expected_lifetime(
                        SystemKind::S2Fortress { kappa },
                        Policy::Proactive,
                        ProbeModel::Broadcast,
                        &params,
                    )
                    .ok()?,
                };
                if !predicted.is_finite() || predicted <= 0.0 {
                    return None;
                }
                let cap = experiment.max_steps.max(1) as f64;
                let tail = 1.0 - (predicted.min(cap) / cap);
                let predicted_downtime = experiment
                    .outage
                    .expected_downtime_fraction(fortress_core::system::pb_failover_timeout())
                    .map(|outage_fraction| (outage_fraction + tail).min(1.0));
                Some(CrossCheckRow {
                    label: o.cell.label.clone(),
                    kappa,
                    measured: o.estimate.mean,
                    predicted,
                    ratio: o.estimate.mean / predicted,
                    censored: o.censored,
                    downtime: (o.avail[MetricId::Downtime].n() > 0)
                        .then(|| o.avail[MetricId::Downtime].mean()),
                    predicted_downtime,
                })
            })
            .collect();
        CrossCheck { rows }
    }

    /// Renders the cross-check as a CSV table.
    pub fn to_table(&self) -> CsvTable {
        let mut table = CsvTable::new(&[
            "cell",
            "kappa",
            "measured",
            "predicted",
            "ratio",
            "censored",
            "downtime",
            "predicted_downtime",
        ]);
        let opt = |v: Option<f64>| v.map(fmt_num).unwrap_or_else(|| "-".to_string());
        for row in &self.rows {
            table.push_row(vec![
                row.label.clone(),
                fmt_num(row.kappa),
                fmt_num(row.measured),
                fmt_num(row.predicted),
                fmt_num(row.ratio),
                row.censored.to_string(),
                opt(row.downtime),
                opt(row.predicted_downtime),
            ]);
        }
        table
    }
}

/// Outage suffix for cell labels: empty for `None` (legacy labels are
/// preserved verbatim), ` out=<schedule>` otherwise.
fn outage_suffix(outage: OutageSpec) -> String {
    if outage.is_none() {
        String::new()
    } else {
        format!(" out={}", outage.label())
    }
}

/// Fault suffix for cell labels: empty for `None` (legacy labels are
/// preserved verbatim), ` fault=<plan+retry>` otherwise.
fn fault_suffix(fault: FaultSpec) -> String {
    if fault.is_none() {
        String::new()
    } else {
        format!(" fault={}", fault.label())
    }
}

/// Shard suffix for cell labels: empty for `None` (legacy labels are
/// preserved verbatim), ` shard=<groups+skew+placement>` otherwise.
fn shard_suffix(shard: ShardSpec) -> String {
    if shard.is_none() {
        String::new()
    } else {
        format!(" shard={}", shard.label())
    }
}

/// Repair suffix for cell labels: empty for `None` (legacy labels are
/// preserved verbatim), ` repair=<schedule>` otherwise.
fn repair_suffix(repair: RepairSpec) -> String {
    if repair.is_none() {
        String::new()
    } else {
        format!(" repair={}", repair.label())
    }
}

/// Short class label for cell names.
fn class_label(class: SystemClass) -> &'static str {
    match class {
        SystemClass::S0Smr => "S0",
        SystemClass::S1Pb => "S1",
        SystemClass::S2Fortress => "S2",
    }
}

/// Short kind label for cell names.
fn kind_label(kind: SystemKind) -> String {
    match kind {
        SystemKind::S0Smr => "S0".to_string(),
        SystemKind::S1Pb => "S1".to_string(),
        SystemKind::S2Fortress { kappa } => format!("S2(k={kappa})"),
    }
}

/// Folds a [`SystemKind`] (discriminant plus κ bits for S2) into a seed.
fn fold_kind(seed: u64, kind: SystemKind) -> u64 {
    match kind {
        SystemKind::S0Smr => fold(seed, 0),
        SystemKind::S1Pb => fold(seed, 1),
        SystemKind::S2Fortress { kappa } => fold(fold(seed, 2), kappa.to_bits()),
    }
}

/// Stable id of the launch-pad semantics for seeding.
fn pad_id(pad: LaunchPad) -> u64 {
    match pad {
        LaunchPad::NextStep => 0,
        LaunchPad::Disabled => 1,
    }
}

/// Folds every seeded parameter of a protocol experiment. The outage,
/// fault and shard coordinates fold last (in that order), and all three
/// `None` coordinates fold nothing — so every pre-axis cell keeps its
/// pinned seed, while any two cells differing in any outage, fault,
/// retry or shard parameter draw decorrelated trial streams.
fn fold_experiment(seed: u64, e: &ProtocolExperiment) -> u64 {
    let mut s = fold(seed, class_id(e.class));
    s = fold(s, e.policy.id());
    s = fold(s, u64::from(e.entropy_bits));
    s = fold(s, e.omega.to_bits());
    s = fold(s, e.suspicion.window);
    s = fold(s, u64::from(e.suspicion.threshold));
    s = fold(s, e.np as u64);
    s = fold(s, scheme_id(e.scheme));
    s = fold(s, e.max_steps);
    s = e.outage.fold_into(s);
    s = e.fault.fold_into(s);
    s = e.shard.fold_into(s);
    e.repair.fold_into(s)
}

/// Stable id of a system class for seeding.
fn class_id(class: SystemClass) -> u64 {
    match class {
        SystemClass::S0Smr => 0,
        SystemClass::S1Pb => 1,
        SystemClass::S2Fortress => 2,
    }
}

/// Stable id of a randomization scheme for seeding.
fn scheme_id(scheme: fortress_obf::scheme::Scheme) -> u64 {
    match scheme {
        fortress_obf::scheme::Scheme::Aslr => 0,
        fortress_obf::scheme::Scheme::Isr => 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_sweep() -> Vec<SweepCell> {
        SweepSpec::new(ProtocolExperiment {
            entropy_bits: 5,
            omega: 8.0,
            max_steps: 300,
            ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
        })
        .policies(Policy::ALL.to_vec())
        .suspicions(vec![SuspicionPolicy { window: 8, threshold: 3 }])
        .strategies(vec![
            StrategyKind::PacedBelowThreshold,
            StrategyKind::SybilPaced { identities: 3 },
        ])
        .compile(0xCAFE)
    }

    #[test]
    fn compile_covers_axes_and_collapses_vacuous_ones() {
        let spec = SweepSpec::new(ProtocolExperiment {
            entropy_bits: 5,
            omega: 8.0,
            max_steps: 200,
            ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
        })
        .classes(vec![SystemClass::S1Pb, SystemClass::S2Fortress])
        .policies(Policy::ALL.to_vec())
        .strategies(vec![
            StrategyKind::PacedBelowThreshold,
            StrategyKind::Burst,
        ]);
        let cells = spec.compile(1);
        // S1 contributes 1 cell per policy (strategy axis vacuous); S2
        // contributes 2 per policy.
        assert_eq!(cells.len(), 2 + 4);
        let mut seeds = std::collections::HashSet::new();
        for cell in &cells {
            assert!(seeds.insert(cell.seed), "seed collision at {}", cell.label);
        }
    }

    #[test]
    fn content_seeds_are_pure_and_axis_sensitive() {
        let cells = tiny_sweep();
        for cell in &cells {
            assert_eq!(cell.seed, cell.spec.content_seed(0xCAFE), "pure");
            assert_ne!(cell.seed, cell.spec.content_seed(0xCAFF), "base matters");
        }
        // SO and PO cells of the same coordinate differ.
        assert_ne!(cells[0].seed, cells[2].seed);
    }

    #[test]
    fn scheduler_matches_per_cell_runner_bit_for_bit() {
        let cells = tiny_sweep();
        let runner = Runner::with_threads(4);
        let budget = TrialBudget::Fixed(24);
        let report = SweepScheduler::new(&runner, budget).run(&cells);
        for (cell, outcome) in cells.iter().zip(&report.cells) {
            let reference = run_scenario(
                cell.spec,
                &runner.clone().with_chunk(CELL_CHUNK),
                budget,
                cell.seed,
            );
            assert_eq!(outcome.stats, reference, "cell {} diverged", cell.label);
        }
    }

    #[test]
    fn scheduler_is_thread_count_invariant_under_adaptive_budgets() {
        let cells = tiny_sweep();
        let budget = TrialBudget::TargetRse {
            target: 0.1,
            min_trials: 8,
            max_trials: 48,
            batch: 8,
        };
        let serial = SweepScheduler::new(&Runner::with_threads(1), budget).run(&cells);
        let pooled = SweepScheduler::new(&Runner::with_threads(8), budget).run(&cells);
        assert_eq!(serial.to_json(), pooled.to_json());
        for (a, b) in serial.cells.iter().zip(&pooled.cells) {
            assert_eq!(a.stats, b.stats, "cell {} diverged", a.cell.label);
        }
    }

    #[test]
    fn sweep_report_renders_kappa_and_censoring() {
        let cells = tiny_sweep();
        let report = SweepScheduler::new(&Runner::with_threads(2), TrialBudget::Fixed(6))
            .run(&cells);
        assert_eq!(report.cells.len(), cells.len());
        let table = report.to_table();
        assert_eq!(table.len(), cells.len());
        let json = report.to_json();
        assert!(json.contains("\"cell\":\"S2 SO"));
        assert!(json.contains("sybil"));
        for o in &report.cells {
            assert!(o.kappa.is_some(), "every S2 rate cell has a κ");
            assert!(o.estimate.mean >= 1.0);
        }
    }

    #[test]
    fn event_and_abstract_scenarios_run_through_the_same_surface() {
        let params = AttackParams::from_alpha(4096.0, 0.01).unwrap();
        let event = ScenarioSpec::Event {
            kind: SystemKind::S1Pb,
            policy: Policy::Proactive,
            params,
            launch_pad: LaunchPad::NextStep,
        };
        let stats = run_scenario(event, &Runner::with_threads(2), TrialBudget::Fixed(4000), 9);
        let analytic = 1.0 / params.alpha();
        assert!((stats.mean() - analytic).abs() / analytic < 0.1);

        let abstract_spec = ScenarioSpec::Abstract(AbstractModel::new(
            SystemKind::S1Pb,
            Policy::Proactive,
            params,
        ));
        let ab = run_scenario(abstract_spec, &Runner::with_threads(2), TrialBudget::Fixed(2000), 9);
        assert!((ab.mean() - analytic).abs() / analytic < 0.15);
        assert_ne!(
            event.content_seed(5),
            abstract_spec.content_seed(5),
            "different fidelities are different cells"
        );
    }

    #[test]
    fn cross_check_rows_cover_rate_disciplined_cells_only() {
        let cells = SweepSpec::new(ProtocolExperiment {
            entropy_bits: 6,
            omega: 8.0,
            max_steps: 2_000,
            ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
        })
        .suspicions(vec![SuspicionPolicy { window: 16, threshold: 5 }])
        .strategies(vec![
            StrategyKind::PacedBelowThreshold,
            StrategyKind::ScanThenStrike,
            StrategyKind::SybilPaced { identities: 4 },
        ])
        .compile(0xC4EC);
        let report =
            SweepScheduler::new(&Runner::with_threads(2), TrialBudget::Fixed(48)).run(&cells);
        let check = CrossCheck::of(&report);
        // paced + sybil have a κ; scan-then-strike does not.
        assert_eq!(check.rows.len(), 2);
        for row in &check.rows {
            assert!(row.predicted.is_finite() && row.predicted > 0.0);
            assert!(row.measured > 0.0);
            assert!(row.ratio.is_finite());
        }
        assert_eq!(check.to_table().len(), 2);
    }
}
