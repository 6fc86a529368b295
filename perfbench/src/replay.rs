//! Traced replay of single sweep trials.
//!
//! [`replay`] reruns one trial of a sweep cell with the same drive loop
//! the sweep runs (`campaign_mc::run_cell_measured` for S2 cells,
//! `ProtocolExperiment::run_measured` for the 1-tier classes), but over
//! a stack the benchmark assembles itself: `Stack::with_transport` over a
//! [`Timed`] `SimNet` seeded exactly as `Stack::new` seeds it, with a
//! span around each call into the adversary, the outage and repair
//! drivers and the end-of-step maintenance. The returned
//! [`TrialMeasure`] must equal the sweep's own for the same seed, bit for
//! bit; the benchmark checks that on every replayed trial.

use fortress_attack::attacker::DirectAttacker;
use fortress_attack::campaign::StrategyKind;
use fortress_core::system::{CompromiseState, Stack, StackConfig, SystemClass};
use fortress_model::params::Policy;
use fortress_net::sim::{SimConfig, SimNet};
use fortress_obf::schedule::ObfuscationPolicy;
use fortress_sim::faults::FaultSpec;
use fortress_sim::outage::{OutageDriver, RepairDriver};
use fortress_sim::protocol_mc::ProtocolExperiment;
use fortress_sim::scenario::{ScenarioSpec, TrialMeasure};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::timed_net::{NetCounts, Timed};
use crate::trace::span;

/// The stack configuration one trial of `exp` runs under — the same
/// fields `ProtocolExperiment` fills in for its own trials.
pub fn stack_config(exp: &ProtocolExperiment, seed: u64) -> StackConfig {
    StackConfig {
        class: exp.class,
        entropy_bits: exp.entropy_bits,
        scheme: exp.scheme,
        policy: match exp.policy {
            Policy::Proactive => ObfuscationPolicy::proactive_unit(),
            Policy::StartupOnly => ObfuscationPolicy::StartupOnly,
        },
        suspicion: exp.suspicion,
        np: exp.np,
        seed,
        ..StackConfig::default()
    }
}

/// The simulated network `Stack::new` builds for `cfg`.
pub fn sim_net(cfg: &StackConfig) -> SimNet {
    SimNet::new(SimConfig {
        seed: cfg.seed ^ 0x5eed,
        ..SimConfig::default()
    })
}

/// What one replayed trial measured.
#[derive(Clone, Debug)]
pub struct Replayed {
    /// The trial's measurement, as the sweep reports it.
    pub measure: TrialMeasure,
    /// Unit time-steps the trial ran.
    pub steps: u64,
    /// Transport counts over the trial.
    pub net: NetCounts,
}

/// The experiment and adversary a sweep cell runs, when the replay
/// supports it: cells without a fault plan or a shard coordinate.
pub fn replayable(spec: &ScenarioSpec) -> Option<(ProtocolExperiment, Option<StrategyKind>)> {
    let (exp, strategy) = match *spec {
        ScenarioSpec::Campaign {
            experiment,
            strategy,
        } => (experiment, Some(strategy)),
        ScenarioSpec::Protocol(e) if e.class == SystemClass::S2Fortress => {
            (e, Some(StrategyKind::PacedBelowThreshold))
        }
        ScenarioSpec::Protocol(e) => (e, None),
        _ => return None,
    };
    (matches!(exp.fault, FaultSpec::None) && exp.shard.is_none()).then_some((exp, strategy))
}

/// Replays trial `seed` of `spec`, recording spans when the recorder is
/// on. Returns `None` for cells [`replayable`] rejects.
pub fn replay(spec: &ScenarioSpec, seed: u64) -> Option<Replayed> {
    let (exp, strategy) = replayable(spec)?;
    let cfg = stack_config(&exp, seed);
    let (net, tally) = Timed::new(sim_net(&cfg));
    let mut stack = span("core.system.build", || {
        Stack::with_transport(cfg, net).expect("sweep cells assemble by construction")
    });
    let (measure, steps) = drive(&exp, strategy, seed, &mut stack);
    Some(Replayed {
        measure,
        steps,
        net: tally.get(),
    })
}

/// Either adversary a sweep trial runs: a campaign strategy (S2) or the
/// baseline direct attacker (1-tier classes).
enum Adversary {
    Strategy(Box<dyn fortress_attack::campaign::AdversaryStrategy<Timed<SimNet>>>),
    Direct(DirectAttacker),
}

/// The drive loop: outage and repair schedules at the top of each step,
/// one adversary step, end-of-step maintenance, PO re-randomization.
fn drive(
    exp: &ProtocolExperiment,
    strategy: Option<StrategyKind>,
    seed: u64,
    stack: &mut Stack<Timed<SimNet>>,
) -> (TrialMeasure, u64) {
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
    for step in 1..=exp.max_steps {
        span("sim.outage.before_step", || outage.before_step(stack, step));
        span("sim.repair.before_step", || repair.before_step(stack, step));
        span("attack.step", || match &mut adversary {
            Adversary::Strategy(a) => a.step(stack, &mut rng),
            Adversary::Direct(a) => a.step(stack, &mut rng),
        });
        if span("core.system.end_step", || stack.end_step()) != CompromiseState::Intact {
            return (
                TrialMeasure::of_protocol_trial(exp.max_steps, step, true, stack),
                step,
            );
        }
        if exp.policy == Policy::Proactive {
            match &mut adversary {
                Adversary::Strategy(a) => a.on_rerandomized(&mut rng),
                Adversary::Direct(a) => a.on_rerandomized(&mut rng),
            }
        }
    }
    (
        TrialMeasure::of_protocol_trial(exp.max_steps, exp.max_steps, false, stack),
        exp.max_steps,
    )
}
