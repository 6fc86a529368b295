//! The traced replay must not perturb results: on both benchmark
//! sweeps, a replayed trial's `TrialMeasure` equals the sweep's own
//! (`run_cell_measured` / `ProtocolExperiment::run_measured`, through
//! `Scenario::run_measured`) bit for bit, with the span recorder on and
//! off.

use fortress_sim::runner::trial_seed;
use fortress_sim::scenario::Scenario;
use perfbench::lab::Sweep;
use perfbench::replay::{replay, replayable};
use perfbench::trace;

fn assert_replay_matches(sweep: Sweep, seed: u64, trials_per_cell: u64) {
    let cells = sweep.cells(seed);
    assert!(!cells.is_empty());
    for cell in &cells {
        assert!(
            replayable(&cell.spec).is_some(),
            "{} is not replayable",
            cell.label
        );
        for i in 0..trials_per_cell {
            let s = trial_seed(cell.seed, i);
            let expected = format!("{:?}", cell.spec.run_measured(s));
            let plain = replay(&cell.spec, s).expect("replayable");
            trace::enable();
            let traced = replay(&cell.spec, s).expect("replayable");
            let spans = trace::take();
            assert_eq!(
                format!("{:?}", plain.measure),
                expected,
                "{} trial {i}",
                cell.label
            );
            assert_eq!(
                format!("{:?}", traced.measure),
                expected,
                "{} trial {i} traced",
                cell.label
            );
            assert_eq!(
                plain.net, traced.net,
                "{} trial {i}: counts differ",
                cell.label
            );
            assert!(spans.iter().any(|s| s.name == "core.system.end_step"));
        }
    }
}

#[test]
fn fortress_sweep_replay_is_bit_identical() {
    assert_replay_matches(Sweep::Fortress, 0xF0_47, 2);
}

#[test]
fn repair_sweep_replay_is_bit_identical() {
    assert_replay_matches(Sweep::Repair, 0xF0_47, 2);
}

#[test]
fn benchmark_json_declares_every_layer_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in perfbench::LAYER_METRICS {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    let declared = json.matches("\"better\"").count();
    assert_eq!(
        declared,
        perfbench::LAYER_METRICS.len() + 3,
        "end-to-end plus per-layer entries"
    );
}
