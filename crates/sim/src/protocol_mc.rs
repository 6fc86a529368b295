//! Protocol-level Monte-Carlo: the real stacks under real attackers.
//!
//! One trial assembles a full [`Stack`] (randomized processes, replication
//! engines, proxies, deterministic network) and a matching attacker, then
//! walks unit time-steps until the class's compromise condition holds. Key
//! spaces are scaled down (default 2^10) so trials finish in milliseconds;
//! the *shape* of the results — who outlives whom — is what corroborates
//! the abstract models (experiment `PROTO` in DESIGN.md).

use fortress_attack::attacker::DirectAttacker;
use fortress_attack::campaign::{AdversaryStrategy, StrategyKind};
use fortress_core::client::RetryPolicy;
use fortress_core::probelog::SuspicionPolicy;
use fortress_core::system::{CompromiseState, Stack, StackConfig, SystemClass};
use fortress_model::params::Policy;
use fortress_net::fault::{FaultPlan, FaultyTransport, FAULT_STREAM};
use fortress_net::sim::SimNet;
use fortress_net::Transport;
use fortress_obf::schedule::ObfuscationPolicy;
use fortress_obf::scheme::Scheme;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::faults::{FaultSpec, GoodputProbe};
use crate::outage::{OutageDriver, OutageSpec, RepairDriver, RepairSpec};
use crate::runner::{fold, Runner, TrialBudget};
use crate::scenario::TrialMeasure;
use crate::stats::Estimate;

/// Configuration of one protocol-level experiment.
#[derive(Clone, Copy, Debug)]
pub struct ProtocolExperiment {
    /// System class under attack.
    pub class: SystemClass,
    /// Obfuscation policy.
    pub policy: Policy,
    /// Key entropy in bits (scaled down from the paper's 16 for runtime).
    pub entropy_bits: u32,
    /// Attacker's unconstrained probe rate ω per unit time-step.
    pub omega: f64,
    /// Proxy suspicion policy (S2 only; determines the effective κ).
    pub suspicion: SuspicionPolicy,
    /// Proxy fleet size `np` (S2 only; the paper deploys 3). The campaign
    /// grids sweep this axis.
    pub np: usize,
    /// Randomization scheme under attack.
    pub scheme: Scheme,
    /// Cap on steps per trial (trials hitting the cap are censored at it).
    pub max_steps: u64,
    /// Machine-outage schedule injected into the PB tier during the
    /// drive loop (the availability axis; [`OutageSpec::None`] preserves
    /// the pre-axis behavior and seeds bit-for-bit).
    pub outage: OutageSpec,
    /// Network-fault schedule wrapped around the trial's transport (the
    /// fault axis; [`FaultSpec::None`] preserves the pre-axis behavior
    /// and seeds bit-for-bit — no decorator, no goodput probe).
    pub fault: FaultSpec,
    /// Shard coordinate: run the cell as a multi-group fleet behind the
    /// key-hash directory (the shard axis;
    /// [`ShardSpec::None`](crate::fleet_mc::ShardSpec) preserves the
    /// pre-axis behavior and seeds bit-for-bit — no fleet, no workload).
    /// S2 campaign cells only; the 1-tier paths ignore it.
    pub shard: crate::fleet_mc::ShardSpec,
    /// Repair coordinate: SMR-tier crash schedule with view-change
    /// recovery and divergence-priced state transfer (the repair axis;
    /// [`RepairSpec::None`] preserves the pre-axis behavior and seeds
    /// bit-for-bit — no driver, no workload client, no repair
    /// accounting). S0 cells only; the other classes ignore it.
    pub repair: RepairSpec,
}

impl ProtocolExperiment {
    /// A default experiment against the given class and policy.
    pub fn new(class: SystemClass, policy: Policy) -> ProtocolExperiment {
        ProtocolExperiment {
            class,
            policy,
            entropy_bits: 10,
            omega: 8.0,
            suspicion: SuspicionPolicy {
                window: 64,
                threshold: 9,
            },
            np: 3,
            scheme: Scheme::Aslr,
            max_steps: 50_000,
            outage: OutageSpec::None,
            fault: FaultSpec::None,
            shard: crate::fleet_mc::ShardSpec::None,
            repair: RepairSpec::None,
        }
    }

    /// The effective κ the suspicion policy imposes on this experiment's
    /// attacker (1.0 for the 1-tier classes).
    pub fn effective_kappa(&self) -> f64 {
        match self.class {
            SystemClass::S2Fortress => {
                fortress_attack::pacing::Pacer::against(self.suspicion, self.omega).kappa()
            }
            _ => 1.0,
        }
    }

    fn obf_policy(&self) -> ObfuscationPolicy {
        match self.policy {
            Policy::Proactive => ObfuscationPolicy::proactive_unit(),
            Policy::StartupOnly => ObfuscationPolicy::StartupOnly,
        }
    }

    /// Assembles the stack one trial of this experiment attacks; `seed`
    /// drives the network, key draws and principal keys. Shared by
    /// [`ProtocolExperiment::run_once`] and the campaign grid driver,
    /// which swaps in its own adversary strategies.
    pub fn build_stack(&self, seed: u64) -> Stack {
        Stack::new(self.stack_config(seed)).expect("stack assembly is validated by construction")
    }

    /// The [`StackConfig`] one trial of this experiment runs under —
    /// shared by the bare and the fault-decorated assembly paths so the
    /// two can never drift apart, and by the trial arena, which keys
    /// stack reuse on the configuration's shape.
    pub(crate) fn stack_config(&self, seed: u64) -> StackConfig {
        StackConfig {
            class: self.class,
            entropy_bits: self.entropy_bits,
            scheme: self.scheme,
            policy: self.obf_policy(),
            suspicion: self.suspicion,
            np: self.np,
            seed,
            ..StackConfig::default()
        }
    }

    /// [`ProtocolExperiment::build_stack`] with the trial's transport
    /// wrapped in a [`FaultyTransport`] running `plan`. The decorator's
    /// RNG stream is `fold(seed, FAULT_STREAM)` — split off the trial
    /// seed exactly like the outage driver's, so it perturbs neither the
    /// stack's nor the adversary's draws.
    pub fn build_faulty_stack(&self, seed: u64, plan: FaultPlan) -> Stack<FaultyTransport<SimNet>> {
        Stack::new_faulty(self.stack_config(seed), plan, fold(seed, FAULT_STREAM))
            .expect("stack assembly is validated by construction")
    }

    /// Runs one trial; returns the 1-based step at which the system fell
    /// (or `max_steps` if censored).
    ///
    /// The S2 trial *is* a campaign cell under the paper's baseline
    /// posture — one drive loop, shared with every other strategy, so
    /// PROTO estimates and campaign `paced` cells cannot drift apart.
    pub fn run_once(&self, seed: u64) -> u64 {
        self.run_measured(seed).lifetime
    }

    /// [`ProtocolExperiment::run_once`] with the availability
    /// measurements attached: the same drive loop (identical RNG
    /// consumption, so lifetimes are bit-identical with or without the
    /// measurement), with the experiment's [`OutageSpec`] applied at the
    /// top of each step and the stack's availability counters read out
    /// at the end.
    pub fn run_measured(&self, seed: u64) -> TrialMeasure {
        if self.class == SystemClass::S2Fortress {
            return crate::campaign_mc::run_cell_measured(
                self,
                StrategyKind::PacedBelowThreshold,
                seed,
            );
        }
        run_single_stack(self, None, seed)
    }

    /// Runs `trials` independent trials through the parallel runner and
    /// returns the lifetime estimate. Each trial's stack and attacker are
    /// seeded from the runner's per-trial counter seed, so the estimate
    /// is identical at any thread count.
    pub fn estimate(&self, trials: u64, base_seed: u64) -> Estimate {
        self.estimate_with(&Runner::new(), TrialBudget::Fixed(trials), base_seed)
    }

    /// [`ProtocolExperiment::estimate`] with explicit runner and budget —
    /// the hook for callers that pin thread counts (determinism tests) or
    /// want adaptive stopping. One delegation to the unified scenario
    /// surface ([`crate::scenario::run_scenario`]): `run_once` builds its
    /// own stack + attacker RNGs from the per-trial counter seed, so
    /// PROTO estimates and scenario sweeps of the same experiment are
    /// bit-identical.
    pub fn estimate_with(&self, runner: &Runner, budget: TrialBudget, base_seed: u64) -> Estimate {
        crate::scenario::run_scenario(
            crate::scenario::ScenarioSpec::Protocol(*self),
            runner,
            budget,
            base_seed,
        )
        .estimate()
    }
}

/// The adversary a single-stack trial runs: a campaign strategy, or the
/// baseline direct attacker of the 1-tier classes.
enum Adversary<T: Transport> {
    Strategy(Box<dyn AdversaryStrategy<T>>),
    Direct(DirectAttacker),
}

/// One single-stack trial of `exp` against `strategy` (`None`: the
/// baseline direct attacker). Fault dispatch: [`FaultSpec::None`] runs
/// the bare transport (byte-identical to the pre-axis path — no
/// decorator, no probe, no extra RNG), drawn from the worker's trial
/// arena so a cell's trials rewind one assembled stack instead of
/// rebuilding; `Degraded` wraps the same assembly in the fault decorator
/// and rides a goodput probe along.
pub(crate) fn run_single_stack(
    exp: &ProtocolExperiment,
    strategy: Option<StrategyKind>,
    seed: u64,
) -> TrialMeasure {
    match exp.fault {
        FaultSpec::None => crate::arena::with_arena_stack(exp.stack_config(seed), |stack| {
            drive(exp, strategy, seed, stack, None)
        }),
        FaultSpec::Degraded { plan, retry } => drive(
            exp,
            strategy,
            seed,
            &mut exp.build_faulty_stack(seed, plan),
            Some(retry),
        ),
    }
}

/// The one single-stack drive loop, generic over the transport: the
/// outage and repair schedules applied at the top of each step, one
/// adversary step, then — when `retry` is given — a [`GoodputProbe`]
/// step, end-of-step maintenance and, under PO, the adversary's
/// re-randomization notice. RNG draw order: outage driver, repair
/// driver, adversary, probe.
fn drive<T: Transport>(
    exp: &ProtocolExperiment,
    strategy: Option<StrategyKind>,
    seed: u64,
    stack: &mut Stack<T>,
    retry: Option<RetryPolicy>,
) -> TrialMeasure {
    let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e3779b97f4a7c15));
    let mut outage = OutageDriver::new(exp.outage, seed);
    let mut repair = RepairDriver::new(exp.repair, "repair");
    let mut adversary = match strategy {
        Some(kind) => Adversary::Strategy(kind.build(
            stack,
            "attacker",
            exp.scheme,
            exp.omega,
            exp.suspicion,
            &mut rng,
        )),
        None => Adversary::Direct(DirectAttacker::new(
            stack, "attacker", exp.scheme, exp.omega, &mut rng,
        )),
    };
    let mut probe = retry.map(|policy| GoodputProbe::new(stack, "probe", policy));
    let (mut fell, mut compromised) = (exp.max_steps, false);
    for step in 1..=exp.max_steps {
        outage.before_step(stack, step);
        repair.before_step(stack, step);
        match &mut adversary {
            Adversary::Strategy(a) => a.step(stack, &mut rng),
            Adversary::Direct(a) => a.step(stack, &mut rng),
        }
        if let Some(probe) = probe.as_mut() {
            probe.step(stack, step);
        }
        if stack.end_step() != CompromiseState::Intact {
            (fell, compromised) = (step, true);
            break;
        }
        if exp.policy == Policy::Proactive {
            match &mut adversary {
                Adversary::Strategy(a) => a.on_rerandomized(&mut rng),
                Adversary::Direct(a) => a.on_rerandomized(&mut rng),
            }
        }
    }
    TrialMeasure::of_protocol_trial(exp.max_steps, fell, compromised, stack)
        .with_degrade(probe.as_mut().map(GoodputProbe::finish))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fortress_model::params::{AttackParams, ProbeModel};
    use fortress_model::{expected_lifetime, SystemKind};

    /// Protocol S1SO lifetimes agree with the analytic model at scaled χ.
    #[test]
    fn s1_so_protocol_matches_model() {
        let exp = ProtocolExperiment {
            entropy_bits: 8,
            omega: 8.0,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::StartupOnly)
        };
        let est = exp.estimate(60, 1000);
        let params = AttackParams::new(256.0, 8.0).unwrap();
        let analytic = expected_lifetime(
            SystemKind::S1Pb,
            Policy::StartupOnly,
            ProbeModel::Broadcast,
            &params,
        )
        .unwrap();
        let rel = (est.mean - analytic).abs() / analytic;
        assert!(rel < 0.25, "protocol {est:?} vs analytic {analytic}");
    }

    /// Protocol S1PO lifetimes agree with 1/α at scaled χ.
    #[test]
    fn s1_po_protocol_matches_model() {
        let exp = ProtocolExperiment {
            entropy_bits: 8,
            omega: 16.0,
            max_steps: 1000,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::Proactive)
        };
        let est = exp.estimate(60, 2000);
        let analytic = 256.0 / 16.0; // 1/alpha = chi/omega
        let rel = (est.mean - analytic).abs() / analytic;
        assert!(rel < 0.3, "protocol {est:?} vs analytic {analytic}");
    }

    /// The protocol stacks reproduce S1SO → S0SO (trend 1).
    #[test]
    fn trend1_holds_at_protocol_level() {
        let s1 = ProtocolExperiment {
            entropy_bits: 8,
            omega: 8.0,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::StartupOnly)
        };
        let s0 = ProtocolExperiment {
            entropy_bits: 8,
            omega: 8.0,
            ..ProtocolExperiment::new(SystemClass::S0Smr, Policy::StartupOnly)
        };
        let e1 = s1.estimate(60, 3000);
        let e0 = s0.estimate(60, 4000);
        assert!(
            e1.mean > e0.mean,
            "S1SO ({:?}) must outlive S0SO ({:?})",
            e1,
            e0
        );
    }

    /// PO outlives SO at protocol level (trend 2, S1 slice).
    #[test]
    fn trend2_holds_at_protocol_level() {
        let po = ProtocolExperiment {
            entropy_bits: 8,
            omega: 8.0,
            max_steps: 2000,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::Proactive)
        };
        let so = ProtocolExperiment {
            entropy_bits: 8,
            omega: 8.0,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::StartupOnly)
        };
        let e_po = po.estimate(50, 5000);
        let e_so = so.estimate(50, 6000);
        assert!(
            e_po.mean > e_so.mean,
            "S1PO ({:?}) must outlive S1SO ({:?})",
            e_po,
            e_so
        );
    }

    #[test]
    fn effective_kappa_reflects_suspicion_policy() {
        let mut exp = ProtocolExperiment::new(SystemClass::S2Fortress, Policy::Proactive);
        exp.omega = 8.0;
        exp.suspicion = SuspicionPolicy {
            window: 64,
            threshold: 9,
        };
        // Safe rate 8/64 = 0.125 → kappa = 0.125/8.
        assert!((exp.effective_kappa() - 0.015625).abs() < 1e-9);
        let direct = ProtocolExperiment::new(SystemClass::S1Pb, Policy::Proactive);
        assert_eq!(direct.effective_kappa(), 1.0);
    }

    /// FORTRESS under SO with a detection-constrained attacker outlives the
    /// bare PB system under SO against the same attacker.
    #[test]
    fn proxies_add_resilience_at_protocol_level() {
        let s2 = ProtocolExperiment {
            entropy_bits: 7,
            omega: 8.0,
            suspicion: SuspicionPolicy {
                window: 32,
                threshold: 3,
            },
            max_steps: 4000,
            ..ProtocolExperiment::new(SystemClass::S2Fortress, Policy::StartupOnly)
        };
        let s1 = ProtocolExperiment {
            entropy_bits: 7,
            omega: 8.0,
            ..ProtocolExperiment::new(SystemClass::S1Pb, Policy::StartupOnly)
        };
        let e2 = s2.estimate(40, 7000);
        let e1 = s1.estimate(40, 8000);
        assert!(
            e2.mean > e1.mean,
            "S2SO ({:?}) must outlive S1SO ({:?}) when proxies pace the attacker",
            e2,
            e1
        );
    }
}
